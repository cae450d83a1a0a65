#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "obs/metrics.h"

namespace shpir::net {

namespace {

// Largest frame we will accept: geometry-independent safety bound.
constexpr uint32_t kMaxFrame = 1u << 30;

// Process-wide socket instruments in the global registry. Everything is
// a plain volume aggregate; the frames themselves are opaque to this
// layer (sealed pages, sealed records).
struct TcpInstruments {
  obs::Counter* connections;
  obs::Counter* frames;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* round_trips;
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
  Bytes payload(length);
  if (length > 0) {
    SHPIR_RETURN_IF_ERROR(RecvAll(fd, payload.data(), length));
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
  if (::listen(fd, 1) != 0) {
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
}

Status TcpFrameListener::ServeOneConnection() {
  const int conn = ::accept(listen_fd_.load(), nullptr, nullptr);
  if (conn < 0) {
    return InternalError(std::string("accept failed: ") +
                         std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  TcpMetrics().connections->Increment();
  while (true) {
    Result<Bytes> request = RecvFrame(conn);
    if (!request.ok()) {
      break;  // Peer closed (normal) or I/O error.
    }
    Result<Bytes> response = handler_(*request);
    if (!response.ok()) {
      // Handler-level failures close the connection; protocol-level
      // errors are encoded into responses by the handlers themselves.
      ::close(conn);
      return response.status();
    }
    const Status sent = SendFrame(conn, *response);
    if (!sent.ok()) {
      ::close(conn);
      return sent;
    }
  }
  ::close(conn);
  return OkStatus();
}

void TcpFrameListener::Run() {
  while (!stopping_.load()) {
    (void)ServeOneConnection();
  }
}

void TcpFrameListener::Stop() {
  stopping_.store(true);
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Result<std::unique_ptr<TcpStorageListener>> TcpStorageListener::Listen(
    StorageServer* server, uint16_t port) {
  if (server == nullptr) {
    return InvalidArgumentError("server is required");
  }
  SHPIR_ASSIGN_OR_RETURN(
      std::unique_ptr<TcpFrameListener> inner,
      TcpFrameListener::Listen(
          [server](ByteSpan frame) -> Result<Bytes> {
            return server->Handle(frame);
          },
          port));
  return std::unique_ptr<TcpStorageListener>(
      new TcpStorageListener(std::move(inner)));
}

}  // namespace shpir::net
