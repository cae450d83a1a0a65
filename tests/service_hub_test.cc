#include "net/service_hub.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "core/thread_safe_engine.h"
#include "crypto/secure_random.h"
#include "net/tcp_transport.h"
#include "obs/admin.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"
#include "test_stack.h"

namespace shpir::net {
namespace {

constexpr size_t kPageSize = 32;

struct Rig {
  std::unique_ptr<core::EngineStack> stack;
  /// The hub calls its engine from several threads at once; the paper's
  /// single engine takes them one at a time behind this wrapper.
  std::unique_ptr<core::ThreadSafeEngine> safe;
  std::unique_ptr<ServiceHub> hub;
  Bytes psk = Bytes(32, 0x66);

  /// With `admin` (which must outlive the rig), the hub serves
  /// `metrics` as its "stats" document.
  static Rig Make(uint64_t seed, obs::MetricsRegistry* metrics = nullptr,
                  obs::AdminRegistry* admin = nullptr) {
    core::CApproxPir::Options options;
    options.num_pages = 40;
    options.page_size = kPageSize;
    options.cache_pages = 4;
    options.block_size = 8;
    Rig rig;
    std::vector<storage::Page> pages;
    for (uint64_t id = 0; id < 40; ++id) {
      pages.emplace_back(id, Bytes(kPageSize, static_cast<uint8_t>(id + 1)));
    }
    rig.stack = test::LoadedStack(options, seed, pages);
    if (metrics != nullptr) {
      rig.stack->cpu().AttachMetrics(metrics);
      rig.stack->engine().EnableMetrics(metrics);
    }
    if (admin != nullptr) {
      obs::AdminSources sources;
      sources.metrics = metrics;
      obs::RegisterStandardDocuments(sources, admin);
    }
    rig.safe = std::make_unique<core::ThreadSafeEngine>(&rig.stack->engine());
    rig.hub = std::make_unique<ServiceHub>(rig.safe.get(), rig.psk, seed + 1,
                                           metrics, /*tracer=*/nullptr, admin);
    return rig;
  }
};

/// Connects a client to `hub` through its handshake; `seed` draws the
/// client's nonce.
PirServiceClient Connect(ServiceHub* hub, const Bytes& psk,
                         uint64_t client_id, uint64_t seed) {
  crypto::SecureRandom rng(seed);
  Bytes nonce(SecureSession::kNonceSize);
  rng.Fill(nonce);
  Result<Bytes> reply =
      hub->HandleFrame(ServiceHub::MakeHello(client_id, nonce));
  SHPIR_CHECK(reply.ok());
  Result<SecureSession> session =
      ServiceHub::CompleteHandshake(*reply, psk, client_id, nonce);
  SHPIR_CHECK(session.ok());
  return PirServiceClient(
      std::move(session).value(), [hub, client_id](ByteSpan record) {
        return hub->HandleFrame(ServiceHub::MakeData(client_id, record));
      });
}

PirServiceClient MakeClient(Rig& rig, uint64_t client_id, uint64_t seed) {
  return Connect(rig.hub.get(), rig.psk, client_id, seed);
}

TEST(ServiceHubTest, SingleClientRoundTrip) {
  Rig rig = Rig::Make(1);
  PirServiceClient client = MakeClient(rig, 101, 2);
  Result<Bytes> data = client.Retrieve(7);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, Bytes(kPageSize, 8));
  EXPECT_EQ(rig.hub->sessions(), 1u);
}

TEST(ServiceHubTest, MultipleClientsInterleave) {
  Rig rig = Rig::Make(3);
  PirServiceClient alice = MakeClient(rig, 1, 4);
  PirServiceClient bob = MakeClient(rig, 2, 5);
  EXPECT_EQ(rig.hub->sessions(), 2u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*alice.Retrieve(static_cast<uint64_t>(i)),
              Bytes(kPageSize, static_cast<uint8_t>(i + 1)));
    EXPECT_EQ(*bob.Retrieve(static_cast<uint64_t>(39 - i)),
              Bytes(kPageSize, static_cast<uint8_t>(40 - i)));
  }
}

TEST(ServiceHubTest, UnknownClientRejected) {
  Rig rig = Rig::Make(6);
  Result<Bytes> reply =
      rig.hub->HandleFrame(ServiceHub::MakeData(999, Bytes(50, 0)));
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServiceHubTest, WrongPskClientCannotOperate) {
  Rig rig = Rig::Make(7);
  crypto::SecureRandom rng(8);
  Bytes nonce(SecureSession::kNonceSize);
  rng.Fill(nonce);
  Result<Bytes> reply =
      rig.hub->HandleFrame(ServiceHub::MakeHello(55, nonce));
  ASSERT_TRUE(reply.ok());
  // Client derives its session from the WRONG psk.
  Result<SecureSession> session = ServiceHub::CompleteHandshake(
      *reply, Bytes(32, 0xBA), 55, nonce);
  ASSERT_TRUE(session.ok());
  PirServiceClient client(
      std::move(session).value(), [&](ByteSpan record) {
        return rig.hub->HandleFrame(ServiceHub::MakeData(55, record));
      });
  EXPECT_FALSE(client.Retrieve(0).ok());
}

TEST(ServiceHubTest, ClientsCannotCrossStreams) {
  Rig rig = Rig::Make(9);
  PirServiceClient alice = MakeClient(rig, 1, 10);
  ASSERT_TRUE(alice.Retrieve(0).ok());
  // Bob replays Alice's style of frame under his id without a
  // handshake-derived key for it.
  crypto::SecureRandom rng(11);
  Bytes nonce(SecureSession::kNonceSize);
  rng.Fill(nonce);
  Result<Bytes> reply =
      rig.hub->HandleFrame(ServiceHub::MakeHello(2, nonce));
  ASSERT_TRUE(reply.ok());
  // Bob (id 2) tries to decrypt/forge using Alice's client key (id 1).
  Result<SecureSession> forged = ServiceHub::CompleteHandshake(
      *reply, rig.psk, /*client_id=*/1, nonce);  // Wrong id in KDF.
  ASSERT_TRUE(forged.ok());
  PirServiceClient bob(
      std::move(forged).value(), [&](ByteSpan record) {
        return rig.hub->HandleFrame(ServiceHub::MakeData(2, record));
      });
  EXPECT_FALSE(bob.Retrieve(0).ok());
}

TEST(ServiceHubTest, MalformedFramesRejected) {
  Rig rig = Rig::Make(12);
  EXPECT_FALSE(rig.hub->HandleFrame(Bytes{}).ok());
  EXPECT_FALSE(rig.hub->HandleFrame(Bytes(5, 0)).ok());
  Bytes bad_tag(20, 0);
  bad_tag[0] = 'X';
  EXPECT_FALSE(rig.hub->HandleFrame(bad_tag).ok());
  Bytes short_hello(10, 0);
  short_hello[0] = 'H';
  EXPECT_FALSE(rig.hub->HandleFrame(short_hello).ok());
}

TEST(ServiceHubTest, FullThreePartyStackOverTcp) {
  // Fig. 1 over a real socket: the relay is a TcpFrameListener feeding
  // hub frames to the coprocessor-side ServiceHub.
  Rig rig = Rig::Make(20);
  ServiceHub* hub = rig.hub.get();
  auto listener = TcpFrameListener::Listen(
      [hub](ByteSpan frame) { return hub->HandleFrame(frame); }, 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread server_thread([&] { (*listener)->Run(); });

  {
    auto transport = TcpTransport::Connect("127.0.0.1", (*listener)->port());
    ASSERT_TRUE(transport.ok()) << transport.status();
    crypto::SecureRandom rng(21);
    Bytes nonce(SecureSession::kNonceSize);
    rng.Fill(nonce);
    Result<Bytes> reply =
        (*transport)->RoundTrip(ServiceHub::MakeHello(77, nonce));
    ASSERT_TRUE(reply.ok());
    Result<SecureSession> session =
        ServiceHub::CompleteHandshake(*reply, rig.psk, 77, nonce);
    ASSERT_TRUE(session.ok());
    Transport* wire = transport->get();
    PirServiceClient client(
        std::move(session).value(), [wire](ByteSpan record) {
          return wire->RoundTrip(ServiceHub::MakeData(77, record));
        });
    for (uint64_t id = 0; id < 10; ++id) {
      Result<Bytes> data = client.Retrieve(id);
      ASSERT_TRUE(data.ok()) << data.status();
      EXPECT_EQ(*data, Bytes(kPageSize, static_cast<uint8_t>(id + 1)));
    }
  }
  (*listener)->Stop();
  server_thread.join();
}

TEST(ServiceHubTest, RehandshakeReplacesSession) {
  Rig rig = Rig::Make(13);
  PirServiceClient first = MakeClient(rig, 7, 14);
  ASSERT_TRUE(first.Retrieve(0).ok());
  PirServiceClient second = MakeClient(rig, 7, 15);
  EXPECT_EQ(rig.hub->sessions(), 1u);
  EXPECT_TRUE(second.Retrieve(1).ok());
  // The first session's keys are gone.
  EXPECT_FALSE(first.Retrieve(2).ok());
}

TEST(ServiceHubTest, StatsOpReturnsParseableSnapshot) {
  obs::MetricsRegistry metrics;
  obs::AdminRegistry admin;
  Rig rig = Rig::Make(30, &metrics, &admin);
  PirServiceClient client = MakeClient(rig, 44, 31);
  for (uint64_t id = 0; id < 5; ++id) {
    ASSERT_TRUE(client.Retrieve(id).ok());
  }
  Result<std::string> payload = client.Admin("stats");
  ASSERT_TRUE(payload.ok()) << payload.status();
  // The document is the registry rendered by obs::ToJson; the fetch
  // itself moves only the hub's frame counters.
  EXPECT_EQ(payload->rfind("{\"counters\":[", 0), 0u) << *payload;
  for (const char* sample :
       {"{\"name\":\"shpir_engine_queries_total\",\"value\":5}",
        "{\"name\":\"shpir_engine_evictions_total\",\"value\":5}",
        "{\"name\":\"shpir_net_hellos_total\",\"value\":1}",
        "{\"name\":\"shpir_engine_query_latency_ns\",\"count\":5,"}) {
    EXPECT_NE(payload->find(sample), std::string::npos) << sample;
  }

  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const auto& c : snapshot.counters) {
      if (c.name == name) {
        return c.value;
      }
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_GE(counter("shpir_hw_seeks_total"), 5u * 4);
  EXPECT_GE(counter("shpir_net_data_frames_total"), 5u);

  bool found_latency = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "shpir_engine_query_latency_ns") {
      found_latency = true;
      EXPECT_EQ(h.count, 5u);
      EXPECT_GT(h.p50, 0.0);
      EXPECT_GE(h.p99, h.p50);
    }
  }
  EXPECT_TRUE(found_latency);
}

TEST(ServiceHubTest, StatsWithoutRegistryIsAnError) {
  Rig rig = Rig::Make(33);  // No admin registry attached.
  PirServiceClient client = MakeClient(rig, 9, 34);
  EXPECT_FALSE(client.Admin("stats").ok());
}

// Trust-boundary assertion (docs/OBSERVABILITY.md): everything that
// crosses the STATS surface is an aggregate from a known namespace —
// no per-request page ids, request indices, or client ids can appear,
// in names or as high-cardinality name suffixes.
TEST(ServiceHubTest, StatsPayloadStaysInsideTrustBoundary) {
  obs::MetricsRegistry metrics;
  obs::AdminRegistry admin;
  Rig rig = Rig::Make(40, &metrics, &admin);
  PirServiceClient client = MakeClient(rig, 5, 41);
  ASSERT_TRUE(client.Retrieve(1).ok());
  ASSERT_TRUE(client.Modify(2, Bytes(4, 0xAA)).ok());
  Result<std::string> payload = client.Admin("stats");
  ASSERT_TRUE(payload.ok()) << payload.status();
  // The payload names exactly the in-process registry's instruments.
  const obs::MetricsSnapshot snapshot = metrics.Snapshot();

  const std::vector<std::string> allowed_prefixes = {
      "shpir_engine_", "shpir_hw_",       "shpir_net_",  "shpir_disk_",
      "shpir_provider_", "shpir_tcp_", "shpir_shard_", "shpir_privacy_"};
  const std::vector<std::string> forbidden = {"page_id", "request_index",
                                              "client_id"};
  std::vector<std::string> names;
  for (const auto& c : snapshot.counters) {
    names.push_back(c.name);
  }
  for (const auto& g : snapshot.gauges) {
    names.push_back(g.name);
  }
  for (const auto& h : snapshot.histograms) {
    names.push_back(h.name);
  }
  EXPECT_FALSE(names.empty());
  size_t served = 0;
  for (size_t at = payload->find("\"name\":"); at != std::string::npos;
       at = payload->find("\"name\":", at + 1)) {
    ++served;
  }
  EXPECT_EQ(served, names.size()) << *payload;
  for (const std::string& name : names) {
    EXPECT_TRUE(obs::MetricsRegistry::IsValidName(name)) << name;
    EXPECT_NE(payload->find("\"name\":\"" + name + "\""), std::string::npos)
        << name;
    bool prefixed = false;
    for (const std::string& prefix : allowed_prefixes) {
      if (name.rfind(prefix, 0) == 0) {
        prefixed = true;
      }
    }
    EXPECT_TRUE(prefixed) << "metric outside known namespaces: " << name;
    for (const std::string& bad : forbidden) {
      EXPECT_EQ(name.find(bad), std::string::npos)
          << "per-request identifier in metric name: " << name;
    }
  }
}

TEST(ServiceHubTest, ControlVerbsRideTheSealedSession) {
  Rig rig = Rig::Make(77);
  std::vector<std::string> seen;
  obs::AdminRegistry admin;
  admin.AddWithArg("control",
                   [&seen](std::string_view arg) -> Result<std::string> {
                     seen.emplace_back(arg);
                     return std::string(arg == "freeze"
                                            ? "{\"frozen\":true}"
                                            : "{\"frozen\":false}");
                   });
  rig.hub = std::make_unique<ServiceHub>(rig.safe.get(), rig.psk,
                                         /*rng_seed=*/78, /*metrics=*/nullptr,
                                         /*tracer=*/nullptr, &admin);
  PirServiceClient client = MakeClient(rig, 1, 900);

  Result<std::string> status = client.Admin("control");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, "{\"frozen\":false}");
  Result<std::string> frozen = client.Admin("control", "freeze");
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(*frozen, "{\"frozen\":true}");
  ASSERT_TRUE(client.Admin("control", "unfreeze").ok());
  ASSERT_TRUE(client.Admin("control", "set-bounds 32 128").ok());

  EXPECT_EQ(seen, (std::vector<std::string>{"", "freeze", "unfreeze",
                                            "set-bounds 32 128"}));
}

TEST(ServiceHubTest, ControlWithoutControllerIsAnError) {
  Rig rig = Rig::Make(79);
  PirServiceClient client = MakeClient(rig, 1, 901);
  Result<std::string> status = client.Admin("control");
  EXPECT_FALSE(status.ok());
}

// The sessions() accessor must synchronize with handshakes mutating the
// session map (it used to read without the mutex). Run under TSan.
TEST(ServiceHubTest, SessionsIsSafeAgainstConcurrentHandshakes) {
  Rig rig = Rig::Make(50);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    size_t last = 0;
    while (!done.load()) {
      const size_t now = rig.hub->sessions();
      EXPECT_GE(now, last);
      last = now;
    }
  });
  crypto::SecureRandom rng(51);
  Bytes nonce(SecureSession::kNonceSize);
  for (uint64_t client_id = 0; client_id < 64; ++client_id) {
    rng.Fill(nonce);
    ASSERT_TRUE(
        rig.hub->HandleFrame(ServiceHub::MakeHello(client_id, nonce)).ok());
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(rig.hub->sessions(), 64u);
}

/// Sends HELLOs for `count` fresh client ids starting at `first_id`.
void HelloFlood(Rig& rig, uint64_t first_id, size_t count) {
  crypto::SecureRandom rng(first_id);
  Bytes nonce(SecureSession::kNonceSize);
  for (uint64_t id = first_id; id < first_id + count; ++id) {
    rng.Fill(nonce);
    SHPIR_CHECK(rig.hub->HandleFrame(ServiceHub::MakeHello(id, nonce)).ok());
  }
}

TEST(ServiceHubTest, SessionTableStopsAtItsLimit) {
  obs::MetricsRegistry metrics;
  Rig rig = Rig::Make(60, &metrics);
  HelloFlood(rig, 1000, ServiceHub::kMaxSessions + 1);
  EXPECT_EQ(rig.hub->sessions(), ServiceHub::kMaxSessions);
  EXPECT_EQ(metrics.FindOrCreateCounter("shpir_net_sessions_evicted_total")
                ->Value(),
            1u);
  EXPECT_EQ(metrics.FindOrCreateGauge("shpir_net_sessions")->Value(),
            static_cast<double>(ServiceHub::kMaxSessions));
  // A re-handshake under a live id replaces its session; nothing goes.
  HelloFlood(rig, 1000 + ServiceHub::kMaxSessions, 1);
  EXPECT_EQ(rig.hub->sessions(), ServiceHub::kMaxSessions);
}

TEST(ServiceHubTest, ActiveClientOutlivesAHelloFlood) {
  Rig rig = Rig::Make(61);
  PirServiceClient client = MakeClient(rig, 7, 62);
  ASSERT_TRUE(client.Retrieve(0).ok());
  for (int wave = 0; wave < 3; ++wave) {
    HelloFlood(rig, 10000 * (wave + 1), ServiceHub::kMaxSessions);
    Result<Bytes> page = client.Retrieve(static_cast<uint64_t>(wave + 1));
    ASSERT_TRUE(page.ok()) << "wave " << wave << ": " << page.status();
    EXPECT_EQ(*page, Bytes(kPageSize, static_cast<uint8_t>(wave + 2)));
  }
  EXPECT_EQ(rig.hub->sessions(), ServiceHub::kMaxSessions);
}

TEST(ServiceHubTest, EvictedClientMustHandshakeAgain) {
  Rig rig = Rig::Make(63);
  PirServiceClient stale = MakeClient(rig, 1, 64);
  ASSERT_TRUE(stale.Retrieve(0).ok());
  // Every other session sends a DATA record later, so the stale one
  // holds the oldest and is the one a new HELLO evicts.
  std::vector<PirServiceClient> active;
  for (uint64_t id = 2; id <= ServiceHub::kMaxSessions; ++id) {
    active.push_back(MakeClient(rig, id, 100 + id));
    ASSERT_TRUE(active.back().Retrieve(id % 40).ok());
  }
  ASSERT_EQ(rig.hub->sessions(), ServiceHub::kMaxSessions);
  PirServiceClient newcomer = MakeClient(rig, 5000, 65);
  ASSERT_TRUE(newcomer.Retrieve(1).ok());

  const Result<Bytes> refused = stale.Retrieve(2);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  for (PirServiceClient& client : active) {
    EXPECT_TRUE(client.Retrieve(3).ok());
  }
  PirServiceClient again = MakeClient(rig, 1, 66);
  Result<Bytes> page = again.Retrieve(2);
  ASSERT_TRUE(page.ok()) << page.status();
  EXPECT_EQ(*page, Bytes(kPageSize, 3));
}

// --- Concurrent sessions ------------------------------------------------

/// How long the gate below waits before giving up. A hub that runs its
/// sessions one at a time makes these tests fail after it, not hang.
constexpr auto kPatience = std::chrono::seconds(5);

/// Fake engine for the concurrency tests. Retrieve(id) answers the one
/// byte id, except that a call for `gated` waits inside the engine until
/// Open() (or fails after kPatience).
class GateEngine : public core::PirEngine {
 public:
  explicit GateEngine(storage::PageId gated) : gated_(gated) {}

  Result<Bytes> Retrieve(storage::PageId id) override {
    if (id == gated_) {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      changed_.notify_all();
      if (!changed_.wait_for(lock, kPatience, [this] { return open_; })) {
        return DeadlineExceededError("the gate never opened");
      }
    }
    return Bytes{static_cast<uint8_t>(id)};
  }
  uint64_t num_pages() const override { return 256; }
  size_t page_size() const override { return 1; }
  const char* name() const override { return "gate"; }

  /// Waits until `n` gated calls are inside the engine at once.
  bool AwaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, kPatience,
                             [this, n] { return entered_ >= n; });
  }

  /// Lets every gated call, present and future, return.
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    changed_.notify_all();
  }

 private:
  const storage::PageId gated_;
  std::mutex mutex_;
  std::condition_variable changed_;
  int entered_ = 0;
  bool open_ = false;
};

PirServiceClient Connect(ServiceHub* hub, const Bytes& psk,
                         uint64_t client_id) {
  return Connect(hub, psk, client_id, /*seed=*/client_id + 1);
}

constexpr storage::PageId kGated = 3;
// The tests below run calls on std::jthread, which joins on the way out
// of a failed ASSERT too; a gated call returns within kPatience.

TEST(ServiceHubTest, SessionsRunTheirEngineCallsAtTheSameTime) {
  GateEngine engine(kGated);
  const Bytes psk(32, 0x21);
  ServiceHub hub(&engine, psk, /*rng_seed=*/1);
  PirServiceClient alice = Connect(&hub, psk, 1);
  PirServiceClient bob = Connect(&hub, psk, 2);
  Result<Bytes> alice_page = InternalError("not run");
  Result<Bytes> bob_page = InternalError("not run");
  std::jthread a([&] { alice_page = alice.Retrieve(kGated); });
  std::jthread b([&] { bob_page = bob.Retrieve(kGated); });
  // Both sessions' calls are inside the engine together.
  EXPECT_TRUE(engine.AwaitEntered(2));
  engine.Open();
  a.join();
  b.join();
  ASSERT_TRUE(alice_page.ok()) << alice_page.status();
  ASSERT_TRUE(bob_page.ok()) << bob_page.status();
  EXPECT_EQ(*alice_page, Bytes{kGated});
  EXPECT_EQ(*bob_page, Bytes{kGated});
}

TEST(ServiceHubTest, RehandshakeDuringAnInFlightCall) {
  GateEngine engine(kGated);
  const Bytes psk(32, 0x22);
  ServiceHub hub(&engine, psk, /*rng_seed=*/2);
  PirServiceClient first = Connect(&hub, psk, 7);
  Result<Bytes> in_flight = InternalError("not run");
  std::jthread call([&] { in_flight = first.Retrieve(kGated); });
  ASSERT_TRUE(engine.AwaitEntered(1));

  // The same id handshakes again while its call is in the engine, and
  // every other slot of the table fills with a client that has sent
  // data, so each holds a newer clock than the replacement.
  PirServiceClient second = Connect(&hub, psk, 7);
  EXPECT_EQ(hub.sessions(), 1u);
  std::vector<PirServiceClient> others;
  for (uint64_t id = 100; id < 100 + ServiceHub::kMaxSessions - 1; ++id) {
    others.push_back(Connect(&hub, psk, id));
    ASSERT_TRUE(others.back().Retrieve(0).ok());
  }
  engine.Open();
  call.join();
  // The call completes, sealed by the session it started under.
  ASSERT_TRUE(in_flight.ok()) << in_flight.status();
  EXPECT_EQ(*in_flight, Bytes{kGated});
  EXPECT_FALSE(first.Retrieve(1).ok());

  // Its clock did not land on the replacement, which has sent nothing:
  // the next newcomer evicts the replacement, not the oldest sender.
  PirServiceClient newcomer = Connect(&hub, psk, 5000);
  EXPECT_EQ(hub.sessions(), ServiceHub::kMaxSessions);
  const Result<Bytes> refused = second.Retrieve(1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(others.front().Retrieve(2).ok());
}

TEST(ServiceHubTest, EvictionDuringAnInFlightCall) {
  GateEngine engine(kGated);
  const Bytes psk(32, 0x23);
  obs::MetricsRegistry metrics;
  ServiceHub hub(&engine, psk, /*rng_seed=*/3, &metrics);
  PirServiceClient stale = Connect(&hub, psk, 1);
  Result<Bytes> in_flight = InternalError("not run");
  std::jthread call([&] { in_flight = stale.Retrieve(kGated); });
  ASSERT_TRUE(engine.AwaitEntered(1));

  // Every other session sends data, so the one whose call is in flight
  // holds the oldest clock, and a newcomer evicts it.
  std::vector<PirServiceClient> active;
  for (uint64_t id = 2; id <= ServiceHub::kMaxSessions; ++id) {
    active.push_back(Connect(&hub, psk, id));
    ASSERT_TRUE(active.back().Retrieve(0).ok());
  }
  PirServiceClient newcomer = Connect(&hub, psk, 5000);
  EXPECT_EQ(metrics.FindOrCreateCounter("shpir_net_sessions_evicted_total")
                ->Value(),
            1u);
  engine.Open();
  call.join();
  ASSERT_TRUE(in_flight.ok()) << in_flight.status();
  EXPECT_EQ(*in_flight, Bytes{kGated});
  // The evicted session stays gone: completing its call revived nothing.
  EXPECT_EQ(hub.sessions(), ServiceHub::kMaxSessions);
  const Result<Bytes> refused = stale.Retrieve(1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(newcomer.Retrieve(2).ok());
}

TEST(ServiceHubTest, TcpClientsSoakThroughAShardedHub) {
  // N clients, each on its own connection and listener thread, through
  // one hub into the sharded runtime. Every payload is checked, and
  // every logical request makes exactly one round on every shard.
  constexpr uint64_t kShards = 2;
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 40;
  constexpr uint64_t kPages = 64;
  constexpr size_t kPage = 16;
  shard::ShardedPirEngine::Options options;
  options.num_pages = kPages;
  options.page_size = kPage;
  options.cache_pages = 8;
  options.privacy_c = 2.0;
  options.shards = kShards;
  options.seed = 41;
  auto made = shard::ShardedPirEngine::Create(options);
  ASSERT_TRUE(made.ok()) << made.status();
  std::unique_ptr<shard::ShardedPirEngine> engine = std::move(made).value();
  std::vector<storage::Page> pages;
  for (uint64_t id = 0; id < kPages; ++id) {
    pages.emplace_back(id, Bytes(kPage, static_cast<uint8_t>(id)));
  }
  ASSERT_TRUE(engine->Initialize(pages).ok());
  std::vector<uint64_t> rounds_before(kShards);
  for (uint64_t s = 0; s < kShards; ++s) {
    rounds_before[s] = engine->shard_engine(s)->stats().queries;
  }

  const Bytes psk(32, 0x24);
  ServiceHub hub(engine.get(), psk, /*rng_seed=*/4);
  auto listener = TcpFrameListener::Listen(
      [&hub](ByteSpan frame) { return hub.HandleFrame(frame); }, 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread server([&] { (*listener)->Run(); });

  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto transport =
          TcpTransport::Connect("127.0.0.1", (*listener)->port());
      if (!transport.ok()) {
        failures += kOpsPerClient;
        return;
      }
      const uint64_t client_id = 900 + static_cast<uint64_t>(c);
      crypto::SecureRandom rng(client_id);
      Bytes nonce(SecureSession::kNonceSize);
      rng.Fill(nonce);
      Result<Bytes> hello =
          (*transport)->RoundTrip(ServiceHub::MakeHello(client_id, nonce));
      Result<SecureSession> session =
          hello.ok() ? ServiceHub::CompleteHandshake(*hello, psk, client_id,
                                                     nonce)
                     : Result<SecureSession>(hello.status());
      if (!session.ok()) {
        failures += kOpsPerClient;
        return;
      }
      Transport* wire = transport->get();
      PirServiceClient client(
          std::move(session).value(), [wire, client_id](ByteSpan record) {
            return wire->RoundTrip(ServiceHub::MakeData(client_id, record));
          });
      // Each client owns the pages congruent to c, so it knows every
      // payload it should read back.
      std::vector<Bytes> expected;
      for (uint64_t id = static_cast<uint64_t>(c); id < kPages;
           id += kClients) {
        expected.push_back(Bytes(kPage, static_cast<uint8_t>(id)));
      }
      for (int op = 0; op < kOpsPerClient; ++op) {
        const size_t slot = rng.UniformInt(expected.size());
        const storage::PageId id = static_cast<storage::PageId>(c) +
                                   slot * static_cast<uint64_t>(kClients);
        if (op % 4 == 3) {
          Bytes data(kPage, static_cast<uint8_t>(0x80 + op));
          if (!client.Modify(id, data).ok()) {
            ++failures;
          }
          expected[slot] = data;
          continue;
        }
        Result<Bytes> page = client.Retrieve(id);
        if (!page.ok()) {
          ++failures;
        } else if (*page != expected[slot]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  (*listener)->Stop();
  server.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  engine->WaitIdle();
  for (uint64_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(engine->shard_engine(s)->stats().queries - rounds_before[s],
              static_cast<uint64_t>(kClients * kOpsPerClient))
        << "shard " << s;
  }
}

}  // namespace
}  // namespace shpir::net
