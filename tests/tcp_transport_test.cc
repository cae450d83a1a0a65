#include "net/tcp_transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "net/remote_disk.h"
#include "net/storage_server.h"
#include "net/wire.h"
#include "obs/admin.h"
#include "obs/metrics.h"
#include "storage/disk.h"

namespace shpir::net {
namespace {

/// Serves `handler` on an ephemeral port from its own thread, and stops
/// and joins it on destruction.
class Served {
 public:
  explicit Served(TcpFrameListener::Handler handler) {
    auto listener = TcpFrameListener::Listen(std::move(handler), 0);
    SHPIR_CHECK(listener.ok());
    listener_ = std::move(listener).value();
    thread_ = std::thread([this] { listener_->Run(); });
  }

  ~Served() {
    listener_->Stop();
    thread_.join();
  }

  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  uint16_t port() const { return listener_->port(); }

 private:
  std::unique_ptr<TcpFrameListener> listener_;
  std::thread thread_;
};

/// A StorageServer's frame handler.
TcpFrameListener::Handler StorageHandler(StorageServer* server) {
  return [server](ByteSpan frame) -> Result<Bytes> {
    return server->Handle(frame);
  };
}

/// Spins up a provider (disk + wire server + TCP listener thread) and
/// tears it down on destruction.
class Provider {
 public:
  Provider(uint64_t slots, size_t slot_size)
      : disk_(slots, slot_size), server_(&disk_),
        served_(StorageHandler(&server_)) {}

  uint16_t port() const { return served_.port(); }
  storage::MemoryDisk& disk() { return disk_; }

 private:
  storage::MemoryDisk disk_;
  StorageServer server_;
  Served served_;
};

TEST(TcpTransportTest, BasicRoundTrips) {
  Provider provider(8, 32);
  auto transport = TcpTransport::Connect("127.0.0.1", provider.port());
  ASSERT_TRUE(transport.ok()) << transport.status();
  auto remote = RemoteDisk::Connect(transport->get());
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ((*remote)->num_slots(), 8u);
  EXPECT_EQ((*remote)->slot_size(), 32u);

  Bytes data(32, 0x5c);
  ASSERT_TRUE((*remote)->Write(3, data).ok());
  Bytes out(32);
  ASSERT_TRUE((*remote)->Read(3, out).ok());
  EXPECT_EQ(out, data);
  // The bytes really crossed into the provider's disk.
  Bytes direct(32);
  ASSERT_TRUE(provider.disk().Read(3, direct).ok());
  EXPECT_EQ(direct, data);
}

TEST(TcpTransportTest, RunsOverTheSocket) {
  Provider provider(16, 16);
  auto transport = TcpTransport::Connect("localhost", provider.port());
  ASSERT_TRUE(transport.ok());
  auto remote = RemoteDisk::Connect(transport->get());
  ASSERT_TRUE(remote.ok());
  std::vector<Bytes> slots;
  for (int i = 0; i < 5; ++i) {
    slots.push_back(Bytes(16, static_cast<uint8_t>(i + 1)));
  }
  ASSERT_TRUE((*remote)->WriteRun(4, slots).ok());
  std::vector<Bytes> out;
  ASSERT_TRUE((*remote)->ReadRun(4, 5, out).ok());
  EXPECT_EQ(out, slots);
}

void IgnoreSignal(int) {}

TEST(TcpTransportTest, EightMibFramesCrossEachWayIntact) {
  // An 8 MiB frame overflows the socket buffers, so each send blocks
  // part-way. A signal (installed without SA_RESTART) interrupting the
  // client's blocked sendmsg makes it return a partial count, and the
  // rest of the length prefix and body must follow from the right
  // offset. The listener echoes each frame reversed.
  struct sigaction ignore = {};
  ignore.sa_handler = IgnoreSignal;
  struct sigaction previous = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &ignore, &previous), 0);
  constexpr size_t kFrame = 8u << 20;
  {
    Served echo([](ByteSpan frame) -> Result<Bytes> {
      return Bytes(frame.rbegin(), frame.rend());
    });
    auto transport = TcpTransport::Connect("127.0.0.1", echo.port());
    ASSERT_TRUE(transport.ok()) << transport.status();
    crypto::SecureRandom rng(5);
    Bytes request(kFrame);
    rng.Fill(request);
    const pthread_t client = ::pthread_self();
    std::atomic<bool> done{false};
    std::thread interrupter([&] {
      while (!done.load()) {
        ::pthread_kill(client, SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    std::vector<Result<Bytes>> replies;
    for (int i = 0; i < 2; ++i) {
      replies.push_back((*transport)->RoundTrip(request));
    }
    done.store(true);
    interrupter.join();
    for (const Result<Bytes>& reply : replies) {
      ASSERT_TRUE(reply.ok()) << reply.status();
      ASSERT_EQ(reply->size(), kFrame);
      EXPECT_TRUE(std::equal(reply->begin(), reply->end(), request.rbegin()));
    }
  }
  ::sigaction(SIGUSR1, &previous, nullptr);
}

TEST(TcpTransportTest, RemoteErrorsSurviveTheWire) {
  Provider provider(4, 16);
  auto transport = TcpTransport::Connect("127.0.0.1", provider.port());
  ASSERT_TRUE(transport.ok());
  auto remote = RemoteDisk::Connect(transport->get());
  ASSERT_TRUE(remote.ok());
  Bytes out(16);
  const Status status = (*remote)->Read(99, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("OUT_OF_RANGE"), std::string::npos);
}

TEST(TcpTransportTest, ConnectToClosedPortFails) {
  // Grab an ephemeral port and close it again so nothing listens there.
  uint16_t dead_port;
  {
    storage::MemoryDisk disk(1, 8);
    StorageServer server(&disk);
    auto listener = TcpFrameListener::Listen(StorageHandler(&server), 0);
    ASSERT_TRUE(listener.ok());
    dead_port = (*listener)->port();
  }
  auto transport = TcpTransport::Connect("127.0.0.1", dead_port);
  EXPECT_FALSE(transport.ok());
}

TEST(TcpTransportTest, BadHostRejected) {
  EXPECT_FALSE(TcpTransport::Connect("not-a-host-name", 1234).ok());
}

TEST(TcpTransportTest, FullPirStackOverTcp) {
  constexpr size_t kPageSize = 64;
  core::CApproxPir::Options options;
  options.num_pages = 30;
  options.page_size = kPageSize;
  options.cache_pages = 4;
  options.block_size = 5;
  auto slots = core::CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());

  Provider provider(*slots, storage::PageCipher::SealedSize(kPageSize));
  auto transport = TcpTransport::Connect("127.0.0.1", provider.port());
  ASSERT_TRUE(transport.ok());
  auto remote = RemoteDisk::Connect(transport->get());
  ASSERT_TRUE(remote.ok());
  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::TwoPartyOwner(64 * hardware::kMB),
      11, remote->get());
  ASSERT_TRUE(stack.ok()) << stack.status();
  core::CApproxPir& engine = (*stack)->engine();
  std::vector<storage::Page> pages;
  for (uint64_t id = 0; id < 30; ++id) {
    pages.emplace_back(id, Bytes(kPageSize, static_cast<uint8_t>(id + 1)));
  }
  ASSERT_TRUE(engine.Initialize(pages).ok());

  crypto::SecureRandom rng(12);
  for (int i = 0; i < 60; ++i) {
    const uint64_t id = rng.UniformInt(30);
    auto data = engine.Retrieve(id);
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(*data, Bytes(kPageSize, static_cast<uint8_t>(id + 1)));
  }
}

// --- Concurrent connections ----------------------------------------------

/// How long a test waits for an answer. A listener that serves one
/// connection at a time makes these tests fail after it, not hang.
constexpr auto kPatience = std::chrono::seconds(5);

/// A client socket that speaks the frame format by hand, so a test can
/// go idle or stall mid-frame. Its reads give up after kPatience.
class RawClient {
 public:
  explicit RawClient(uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    SHPIR_CHECK(fd_ >= 0);
    timeval timeout = {};
    timeout.tv_sec = std::chrono::seconds(kPatience).count();
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    SHPIR_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0);
  }
  ~RawClient() { Close(); }

  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  bool Send(ByteSpan bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Sends `frame` with its length prefix and reads one frame back.
  Result<Bytes> RoundTrip(ByteSpan frame) {
    Bytes wire(4 + frame.size());
    StoreLE32(static_cast<uint32_t>(frame.size()), wire.data());
    std::copy(frame.begin(), frame.end(), wire.begin() + 4);
    if (!Send(wire)) {
      return InternalError("send failed");
    }
    uint8_t header[4];
    if (!Recv(header, 4)) {
      return DeadlineExceededError("no answer");
    }
    Bytes reply(LoadLE32(header));
    if (!Recv(reply.data(), reply.size())) {
      return DeadlineExceededError("truncated answer");
    }
    return reply;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  bool Recv(uint8_t* out, size_t size) {
    for (size_t got = 0; got < size;) {
      const ssize_t n = ::recv(fd_, out + got, size - got, 0);
      if (n <= 0) {
        return false;
      }
      got += static_cast<size_t>(n);
    }
    return true;
  }

  int fd_;
};

Bytes RequestFrame(Op op, storage::Location location = 0,
                   Bytes payload = {}) {
  Request request;
  request.op = op;
  request.location = location;
  request.payload = std::move(payload);
  return EncodeRequest(request);
}

/// A second client's write and read-back through `port`.
Status WriteAndReadBack(uint16_t port, size_t slot_size) {
  RawClient client(port);
  const Bytes data(slot_size, 0x3c);
  SHPIR_ASSIGN_OR_RETURN(Bytes written,
                         client.RoundTrip(RequestFrame(Op::kWrite, 1, data)));
  SHPIR_RETURN_IF_ERROR(DecodeResponse(written).status());
  SHPIR_ASSIGN_OR_RETURN(Bytes read,
                         client.RoundTrip(RequestFrame(Op::kRead, 1)));
  SHPIR_ASSIGN_OR_RETURN(Bytes slot, DecodeResponse(read));
  return slot == data ? OkStatus() : DataLossError("read back other bytes");
}

TEST(TcpFrameListenerTest, IdleConnectionDoesNotBlockOtherClients) {
  Provider provider(8, 32);
  RawClient idle(provider.port());
  const Status second = WriteAndReadBack(provider.port(), 32);
  EXPECT_TRUE(second.ok()) << second;
}

TEST(TcpFrameListenerTest, ConnectionStalledMidFrameDoesNotBlockOthers) {
  Provider provider(8, 32);
  RawClient stalled(provider.port());
  // A length prefix for 100 bytes, then 10 of them, then nothing.
  Bytes partial(4 + 10, 0xee);
  StoreLE32(100, partial.data());
  ASSERT_TRUE(stalled.Send(partial));
  const Status second = WriteAndReadBack(provider.port(), 32);
  EXPECT_TRUE(second.ok()) << second;
}

TEST(TcpFrameListenerTest, StopReturnsWhileIdleConnectionsAreOpen) {
  auto listener = TcpFrameListener::Listen(
      [](ByteSpan frame) -> Result<Bytes> {
        return Bytes(frame.begin(), frame.end());
      },
      0);
  ASSERT_TRUE(listener.ok());
  std::mutex mutex;
  std::condition_variable changed;
  bool returned = false;
  std::thread server([&] {
    (*listener)->Run();
    std::lock_guard<std::mutex> lock(mutex);
    returned = true;
    changed.notify_all();
  });
  // One idle connection that was answered once, one that never sent.
  std::vector<std::unique_ptr<RawClient>> idle;
  idle.push_back(std::make_unique<RawClient>((*listener)->port()));
  EXPECT_TRUE(idle.back()->RoundTrip(Bytes{1, 2}).ok());
  idle.push_back(std::make_unique<RawClient>((*listener)->port()));

  const auto start = std::chrono::steady_clock::now();
  (*listener)->Stop();
  bool stopped = false;
  {
    std::unique_lock<std::mutex> lock(mutex);
    stopped = changed.wait_for(lock, kPatience, [&] { return returned; });
  }
  const auto took = std::chrono::steady_clock::now() - start;
  idle.clear();  // Lets a listener that ignored Stop() return too.
  server.join();
  EXPECT_TRUE(stopped);
  EXPECT_LT(took, std::chrono::seconds(1));
}

TEST(TcpFrameListenerTest, ConnectionsPastTheCapAreRefused) {
  Served echo([](ByteSpan frame) -> Result<Bytes> {
    return Bytes(frame.begin(), frame.end());
  });
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter* refused =
      registry.FindOrCreateCounter("shpir_tcp_connections_refused_total");
  const obs::Gauge* open =
      registry.FindOrCreateGauge("shpir_tcp_connections_open");
  const uint64_t refused_before = refused->Value();
  const double open_before = open->Value();
  constexpr size_t kCap = TcpFrameListener::kMaxConnections;

  std::vector<std::unique_ptr<RawClient>> served;
  for (size_t i = 0; i < kCap; ++i) {
    served.push_back(std::make_unique<RawClient>(echo.port()));
    ASSERT_TRUE(served.back()->RoundTrip(Bytes{1}).ok()) << i;
  }
  EXPECT_EQ(open->Value(), open_before + kCap);
  // One more is closed at accept, unanswered.
  {
    RawClient extra(echo.port());
    EXPECT_FALSE(extra.RoundTrip(Bytes{2}).ok());
  }
  EXPECT_EQ(refused->Value(), refused_before + 1);

  // A connection that ends frees its place.
  served.pop_back();
  const auto deadline = std::chrono::steady_clock::now() + kPatience;
  while (open->Value() > open_before + kCap - 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  RawClient again(echo.port());
  EXPECT_TRUE(again.RoundTrip(Bytes{3}).ok());
  EXPECT_EQ(refused->Value(), refused_before + 1);
}

/// This process's resident set, from /proc/self/statm.
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t total_pages = 0;
  size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(TcpFrameListenerTest, BareMaxFrameHeaderHoldsLittleMemory) {
  Served echo([](ByteSpan frame) -> Result<Bytes> {
    return Bytes(frame.begin(), frame.end());
  });
  RawClient client(echo.port());
  // One answered frame first, so the connection's thread is running
  // before the baseline is taken.
  ASSERT_TRUE(client.RoundTrip(Bytes{1}).ok());
  const size_t before = ResidentBytes();
  // The largest length the listener accepts (1 GiB), and no body.
  uint8_t header[4];
  StoreLE32(1u << 30, header);
  ASSERT_TRUE(client.Send(ByteSpan(header, sizeof(header))));
  size_t peak = before;
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    peak = std::max(peak, ResidentBytes());
  }
  EXPECT_LT(peak - before, size_t{32} << 20);
}

/// MemoryDisk whose Read waits inside the disk until Release() (or
/// kPatience), counting the callers inside at once.
class BlockingDisk : public storage::MemoryDisk {
 public:
  using MemoryDisk::MemoryDisk;

  Status Read(storage::Location loc, MutableByteSpan out) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++inside_;
      peak_ = std::max(peak_, inside_);
      changed_.notify_all();
      changed_.wait_for(lock, kPatience, [this] { return released_; });
      --inside_;
    }
    return MemoryDisk::Read(loc, out);
  }

  bool AwaitInside(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, kPatience,
                             [this, n] { return inside_ >= n; });
  }
  int peak() {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    changed_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  int inside_ = 0;
  int peak_ = 0;
  bool released_ = false;
};

TEST(TcpFrameListenerTest, StorageAdminIsAnsweredWhileADataOpIsInTheDisk) {
  BlockingDisk disk(8, 16);
  obs::AdminRegistry admin;
  admin.Add("probe", [] { return std::string("probed"); });
  StorageServer server(&disk, nullptr, nullptr, nullptr, nullptr, nullptr,
                       nullptr, &admin);
  Served served(StorageHandler(&server));
  RawClient owner(served.port());
  RawClient second_owner(served.port());
  RawClient operator_cli(served.port());

  // jthreads join on the way out of a failed ASSERT too.
  Result<Bytes> first_read = InternalError("not run");
  std::jthread first([&] {
    first_read = owner.RoundTrip(RequestFrame(Op::kRead, 0));
  });
  ASSERT_TRUE(disk.AwaitInside(1));
  // Another connection's data op waits for the one in the disk.
  Result<Bytes> second_read = InternalError("not run");
  std::jthread second([&] {
    second_read = second_owner.RoundTrip(RequestFrame(Op::kRead, 1));
  });

  // Neither waits for the operator: ADMIN and GEOMETRY take no data lock.
  const Result<Bytes> document = operator_cli.RoundTrip(
      RequestFrame(Op::kAdmin, 0, EncodeAdminRequest("probe")));
  const Result<Bytes> geometry =
      operator_cli.RoundTrip(RequestFrame(Op::kGeometry));
  disk.Release();
  first.join();
  second.join();
  ASSERT_TRUE(document.ok()) << document.status();
  const Result<Bytes> body = DecodeResponse(*document);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(std::string(body->begin(), body->end()), "probed");
  ASSERT_TRUE(geometry.ok()) << geometry.status();
  EXPECT_TRUE(DecodeResponse(*geometry).ok());
  ASSERT_TRUE(first_read.ok()) << first_read.status();
  ASSERT_TRUE(second_read.ok()) << second_read.status();
  EXPECT_TRUE(DecodeResponse(*first_read).ok());
  EXPECT_TRUE(DecodeResponse(*second_read).ok());
  EXPECT_EQ(disk.peak(), 1);
}

}  // namespace
}  // namespace shpir::net
