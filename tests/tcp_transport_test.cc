#include "net/tcp_transport.h"

#include <gtest/gtest.h>

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "net/remote_disk.h"
#include "storage/disk.h"

namespace shpir::net {
namespace {

/// Spins up a provider (disk + wire server + TCP listener thread) and
/// tears it down on destruction.
class Provider {
 public:
  Provider(uint64_t slots, size_t slot_size)
      : disk_(slots, slot_size), server_(&disk_) {
    auto listener = TcpStorageListener::Listen(&server_, 0);
    SHPIR_CHECK(listener.ok());
    listener_ = std::move(listener).value();
    thread_ = std::thread([this] { listener_->Run(); });
  }

  ~Provider() {
    listener_->Stop();
    thread_.join();
  }

  uint16_t port() const { return listener_->port(); }
  storage::MemoryDisk& disk() { return disk_; }

 private:
  storage::MemoryDisk disk_;
  StorageServer server_;
  std::unique_ptr<TcpStorageListener> listener_;
  std::thread thread_;
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
  auto listener = TcpFrameListener::Listen(
      [](ByteSpan frame) -> Result<Bytes> {
        return Bytes(frame.rbegin(), frame.rend());
      },
      0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] { (void)(*listener)->ServeOneConnection(); });
  {
    auto transport = TcpTransport::Connect("127.0.0.1", (*listener)->port());
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
  server.join();
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
    auto listener = TcpStorageListener::Listen(&server, 0);
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
  constexpr size_t kSealedSize = 12 + 8 + kPageSize + 32;
  core::CApproxPir::Options options;
  options.num_pages = 30;
  options.page_size = kPageSize;
  options.cache_pages = 4;
  options.block_size = 5;
  auto slots = core::CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());

  Provider provider(*slots, kSealedSize);
  auto transport = TcpTransport::Connect("127.0.0.1", provider.port());
  ASSERT_TRUE(transport.ok());
  auto remote = RemoteDisk::Connect(transport->get());
  ASSERT_TRUE(remote.ok());
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::TwoPartyOwner(64 * hardware::kMB),
      remote->get(), kPageSize, 11);
  ASSERT_TRUE(cpu.ok());
  auto engine = core::CApproxPir::Create(cpu->get(), options);
  ASSERT_TRUE(engine.ok());
  std::vector<storage::Page> pages;
  for (uint64_t id = 0; id < 30; ++id) {
    pages.emplace_back(id, Bytes(kPageSize, static_cast<uint8_t>(id + 1)));
  }
  ASSERT_TRUE((*engine)->Initialize(pages).ok());

  crypto::SecureRandom rng(12);
  for (int i = 0; i < 60; ++i) {
    const uint64_t id = rng.UniformInt(30);
    auto data = (*engine)->Retrieve(id);
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(*data, Bytes(kPageSize, static_cast<uint8_t>(id + 1)));
  }
}

}  // namespace
}  // namespace shpir::net
