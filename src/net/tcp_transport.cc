#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <system_error>

#include "common/bytes.h"
#include "obs/metrics.h"

namespace shpir::net {

namespace {

// Largest frame we will accept: geometry-independent safety bound.
constexpr uint32_t kMaxFrame = 1u << 30;

// A frame's buffer grows at most this far ahead of the bytes received,
// so a peer that announces a large frame and stalls holds little memory.
// Frames up to this size (query frames, and a bulk load's 1024-slot
// runs of 1 KiB pages) still arrive in one allocation.
constexpr size_t kRecvStep = 4u << 20;

// Process-wide socket instruments in the global registry. Everything is
// a plain volume aggregate; the frames themselves are opaque to this
// layer (sealed pages, sealed records).
struct TcpInstruments {
  obs::Counter* connections;
  obs::Counter* frames;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* round_trips;
  obs::Counter* refused;
  obs::Counter* handler_failures;
  obs::Gauge* open;
};

const TcpInstruments& TcpMetrics() {
  static const TcpInstruments instruments = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return TcpInstruments{
        registry.FindOrCreateCounter("shpir_tcp_connections_total"),
        registry.FindOrCreateCounter("shpir_tcp_frames_total"),
        registry.FindOrCreateCounter("shpir_tcp_bytes_in_total"),
        registry.FindOrCreateCounter("shpir_tcp_bytes_out_total"),
        registry.FindOrCreateCounter("shpir_tcp_client_round_trips_total"),
        registry.FindOrCreateCounter("shpir_tcp_connections_refused_total"),
        registry.FindOrCreateCounter("shpir_tcp_handler_failures_total"),
        registry.FindOrCreateGauge("shpir_tcp_connections_open"),
    };
  }();
  return instruments;
}

Status RecvAll(int fd, uint8_t* data, size_t size) {
  size_t received = 0;
  while (received < size) {
    const ssize_t n = ::recv(fd, data + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return InternalError(std::string("recv failed: ") +
                           std::strerror(errno));
    }
    if (n == 0) {
      return DataLossError("peer closed the connection");
    }
    received += static_cast<size_t>(n);
  }
  return OkStatus();
}

// Sends the length prefix and the payload with one sendmsg over two
// iovecs, so a small frame leaves as one segment under TCP_NODELAY and
// wakes the peer once. Partial sends advance through both iovecs.
Status SendFrame(int fd, ByteSpan payload) {
  uint8_t header[4];
  StoreLE32(static_cast<uint32_t>(payload.size()), header);
  iovec iov[2] = {
      {header, sizeof(header)},
      {const_cast<uint8_t*>(payload.data()), payload.size()},
  };
  msghdr msg = {};
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return InternalError(std::string("send failed: ") +
                           std::strerror(errno));
    }
    size_t sent = static_cast<size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      iovec& next = *msg.msg_iov;
      next.iov_base = static_cast<uint8_t*>(next.iov_base) + sent;
      next.iov_len -= sent;
    }
  }
  const TcpInstruments& m = TcpMetrics();
  m.frames->Increment();
  m.bytes_out->Increment(4 + payload.size());
  return OkStatus();
}

Result<Bytes> RecvFrame(int fd) {
  uint8_t header[4];
  SHPIR_RETURN_IF_ERROR(RecvAll(fd, header, 4));
  const uint32_t length = LoadLE32(header);
  if (length > kMaxFrame) {
    return DataLossError("oversized frame");
  }
  Bytes payload;
  while (payload.size() < length) {
    const size_t received = payload.size();
    const size_t step = std::min<size_t>(length - received, kRecvStep);
    payload.resize(received + step);
    SHPIR_RETURN_IF_ERROR(RecvAll(fd, payload.data() + received, step));
  }
  const TcpInstruments& m = TcpMetrics();
  m.frames->Increment();
  m.bytes_in->Increment(4 + static_cast<uint64_t>(length));
  return payload;
}

}  // namespace

Result<std::unique_ptr<TcpTransport>> TcpTransport::Connect(
    const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError("socket() failed");
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("cannot parse host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return InternalError(std::string("connect failed: ") +
                         std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  TcpMetrics().connections->Increment();
  return std::unique_ptr<TcpTransport>(new TcpTransport(fd));
}

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<Bytes> TcpTransport::RoundTrip(ByteSpan request) {
  SHPIR_RETURN_IF_ERROR(SendFrame(fd_, request));
  Result<Bytes> response = RecvFrame(fd_);
  if (response.ok()) {
    TcpMetrics().round_trips->Increment();
  }
  return response;
}

Result<std::unique_ptr<TcpFrameListener>> TcpFrameListener::Listen(
    Handler handler, uint16_t port) {
  if (!handler) {
    return InvalidArgumentError("handler is required");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError("socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return InternalError(std::string("bind failed: ") +
                         std::strerror(errno));
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return InternalError("listen failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return InternalError("getsockname failed");
  }
  return std::unique_ptr<TcpFrameListener>(new TcpFrameListener(
      std::move(handler), fd, ntohs(addr.sin_port)));
}

TcpFrameListener::~TcpFrameListener() {
  Stop();
  ::close(listen_fd_);
}

void TcpFrameListener::Run() {
  while (Admit(::accept(listen_fd_, nullptr, nullptr))) {
  }
  // Stop() shut down every open connection, so each thread's read
  // returns. The nodes move to `serving` intact, so each thread still
  // finds its own.
  std::list<Connection> serving;
  {
    common::MutexLock lock(mutex_);
    serving.swap(connections_);
  }
  for (Connection& connection : serving) {
    connection.thread.join();
  }
}

bool TcpFrameListener::Admit(int fd) {
  const TcpInstruments& m = TcpMetrics();
  std::list<Connection> finished;
  bool serving = true;
  {
    common::MutexLock lock(mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      const auto next = std::next(it);
      if (it->fd < 0) {
        finished.splice(finished.end(), connections_, it);
      }
      it = next;
    }
    if (stopping_) {
      serving = false;
      if (fd >= 0) {
        ::close(fd);
      }
    } else if (fd >= 0 && connections_.size() >= kMaxConnections) {
      m.refused->Increment();  // Before the peer can see the close.
      ::close(fd);
    } else if (fd >= 0) {
      Connection& connection = connections_.emplace_back();
      connection.fd = fd;
      // Counted before its thread can answer anything.
      m.open->Add(1.0);
      try {
        connection.thread =
            std::thread(&TcpFrameListener::Serve, this, &connection, fd);
        m.connections->Increment();
      } catch (const std::system_error&) {
        // No thread to serve it: refused like a connection past the cap.
        connections_.pop_back();
        m.open->Add(-1.0);
        m.refused->Increment();
        ::close(fd);
      }
    }
  }
  for (Connection& connection : finished) {
    connection.thread.join();
  }
  return serving;
}

void TcpFrameListener::Serve(Connection* connection, int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  while (true) {
    Result<Bytes> request = RecvFrame(fd);
    if (!request.ok()) {
      break;  // Peer closed (normal), I/O error, or Stop().
    }
    // Handler-level failures close the connection; protocol-level
    // errors are encoded into responses by the handlers themselves. An
    // exception is a handler failure too: it must not end the process.
    const Result<Bytes> response = [&]() -> Result<Bytes> {
      try {
        return handler_(*request);
      } catch (const std::exception& e) {
        return InternalError(std::string("frame handler threw: ") + e.what());
      }
    }();
    if (!response.ok()) {
      TcpMetrics().handler_failures->Increment();
      break;
    }
    if (!SendFrame(fd, *response).ok()) {
      break;
    }
  }
  // Closed under the lock, so Stop() never shuts down a reused number.
  common::MutexLock lock(mutex_);
  ::close(fd);
  connection->fd = -1;
  TcpMetrics().open->Add(-1.0);
}

void TcpFrameListener::Stop() {
  common::MutexLock lock(mutex_);
  if (!stopping_) {
    stopping_ = true;
    // Wakes a blocked accept(); the destructor closes the socket, so its
    // number cannot be reused while Run() may still call accept() on it.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  // Under the same lock as stopping_, so Admit() starts no connection
  // that this loop misses.
  for (const Connection& connection : connections_) {
    if (connection.fd >= 0) {
      ::shutdown(connection.fd, SHUT_RDWR);
    }
  }
}

}  // namespace shpir::net
