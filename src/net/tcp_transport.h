#ifndef SHPIR_NET_TCP_TRANSPORT_H_
#define SHPIR_NET_TCP_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/result.h"
#include "net/transport.h"

namespace shpir::net {

/// Real TCP transport for the two- and three-party models:
/// length-prefixed frames (4-byte little-endian length, then the
/// payload) over a blocking socket. This is the production counterpart
/// of DirectTransport — same protocols, real network.
class TcpTransport : public Transport {
 public:
  /// Connects to `host:port` (IPv4 dotted quad or "localhost").
  static Result<std::unique_ptr<TcpTransport>> Connect(
      const std::string& host, uint16_t port);

  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Result<Bytes> RoundTrip(ByteSpan request) override;

 private:
  explicit TcpTransport(int fd) : fd_(fd) {}

  int fd_;
};

/// Generic frame server: accepts connections and feeds each received
/// frame to a handler, writing its result back. Serves the block-store
/// protocol (StorageServer), the multi-client hub (ServiceHub), or any
/// other request/response endpoint.
///
/// Each connection is served on its own thread: a blocking read of one
/// frame, the handler, one send, until the peer closes. So one idle or
/// slow client holds only its own thread, and the handler runs for
/// several connections at once and must be thread-safe. At most
/// kMaxConnections are served at a time; a connection past the cap is
/// closed at accept and counted in shpir_tcp_connections_refused_total.
class TcpFrameListener {
 public:
  using Handler = std::function<Result<Bytes>(ByteSpan frame)>;

  /// Most connections served at once.
  static constexpr size_t kMaxConnections = 64;

  /// Binds to 127.0.0.1:`port` (0 = ephemeral).
  static Result<std::unique_ptr<TcpFrameListener>> Listen(Handler handler,
                                                          uint16_t port);

  /// Stops the listener; Run() must have returned or never been called.
  ~TcpFrameListener();

  TcpFrameListener(const TcpFrameListener&) = delete;
  TcpFrameListener& operator=(const TcpFrameListener&) = delete;

  /// The bound port (useful with port 0).
  uint16_t port() const { return port_; }

  /// Accepts and serves connections until Stop() is called from another
  /// thread. Returns only after every connection's thread has joined, so
  /// the handler's targets may be destroyed as soon as it returns.
  void Run();

  /// Shuts down the listen socket and every open connection, so Run()
  /// returns promptly even while clients sit idle. Thread-safe.
  void Stop();

 private:
  struct Connection {
    /// The connection's socket; -1 once its thread has closed it and
    /// is about to exit. Guarded by mutex_.
    int fd = -1;
    std::thread thread;
  };

  TcpFrameListener(Handler handler, int listen_fd, uint16_t port)
      : handler_(std::move(handler)),
        listen_fd_(listen_fd),
        port_(port) {}

  /// Takes one accept() result: reaps finished connections, then starts
  /// a thread for `fd` (or refuses it at the cap). False once stopping.
  bool Admit(int fd);

  /// The body of a connection's thread.
  void Serve(Connection* connection, int fd);

  const Handler handler_;
  const int listen_fd_;  // Closed by the destructor.
  const uint16_t port_;
  common::Mutex mutex_;
  bool stopping_ GUARDED_BY(mutex_) = false;
  /// A list, so each thread's Connection keeps its address.
  std::list<Connection> connections_ GUARDED_BY(mutex_);
};

}  // namespace shpir::net

#endif  // SHPIR_NET_TCP_TRANSPORT_H_
