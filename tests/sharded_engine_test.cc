#include "shard/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"

namespace shpir::shard {
namespace {

using storage::Page;
using storage::PageId;

Bytes PayloadFor(PageId id, size_t page_size) {
  Bytes data(page_size);
  for (size_t i = 0; i < page_size; ++i) {
    data[i] = static_cast<uint8_t>((id * 131 + i * 17) & 0xFF);
  }
  return data;
}

std::vector<Page> MakePages(uint64_t n, size_t page_size) {
  std::vector<Page> pages;
  pages.reserve(n);
  for (PageId id = 0; id < n; ++id) {
    pages.emplace_back(id, PayloadFor(id, page_size));
  }
  return pages;
}

ShardedPirEngine::Options SmallOptions(uint64_t shards) {
  ShardedPirEngine::Options options;
  options.num_pages = 64;
  options.page_size = 32;
  options.cache_pages = 8;
  options.privacy_c = 2.0;
  options.shards = shards;
  options.queue_depth = 256;
  options.seed = 42;
  return options;
}

std::unique_ptr<ShardedPirEngine> MakeEngine(
    const ShardedPirEngine::Options& options) {
  auto engine = ShardedPirEngine::Create(options);
  SHPIR_CHECK_OK(engine.status());
  SHPIR_CHECK_OK((*engine)->Initialize(
      MakePages(options.num_pages, options.page_size)));
  return std::move(*engine);
}

TEST(ShardedEngineTest, ShardTracesLeaveTheDiskSpansUnchanged) {
  // A shard's trace passes runs on to its SpanDisk as runs, so a traced
  // shard emits one disk span per run and one per extra slot, too.
  std::map<std::string, int> spans[2];
  for (const bool traced : {false, true}) {
    ShardedPirEngine::Options options = SmallOptions(2);
    options.enable_traces = traced;
    std::unique_ptr<ShardedPirEngine> engine = MakeEngine(options);
    obs::Tracer::Options trace_options;
    trace_options.sample_every = 1;
    obs::Tracer tracer(trace_options);
    engine->EnableTracing(&tracer);
    obs::TraceSpan root(&tracer, "client_query");
    ASSERT_TRUE(engine->TracedRetrieve(13, root.context()).ok());
    engine->WaitIdle();
    for (const obs::SpanRecord& span : tracer.Snapshot()) {
      ++spans[traced][span.name];
    }
  }
  EXPECT_EQ(spans[0], spans[1]);
  EXPECT_EQ(spans[1]["disk_read"], 4);
  EXPECT_EQ(spans[1]["disk_write"], 4);
}

TEST(ShardedEngineTest, RetrievesEveryPageAcrossShards) {
  auto engine = MakeEngine(SmallOptions(4));
  for (PageId id = 0; id < engine->num_pages(); ++id) {
    Result<Bytes> data = engine->Retrieve(id);
    ASSERT_TRUE(data.ok()) << data.status().message();
    EXPECT_EQ(*data, PayloadFor(id, engine->page_size()));
  }
  engine->Drain();
}

TEST(ShardedEngineTest, EveryNonOwnerShardGetsExactlyOneDummy) {
  auto engine = MakeEngine(SmallOptions(4));
  std::mutex mutex;
  // Per logical request (in submission order), per shard: dummy flag.
  std::map<uint64_t, uint64_t> real_per_shard;
  std::map<uint64_t, uint64_t> dummy_per_shard;
  engine->set_shard_query_observer(
      [&](uint64_t shard, uint64_t /*index*/, PageId /*local*/, bool dummy) {
        std::lock_guard<std::mutex> lock(mutex);
        (dummy ? dummy_per_shard : real_per_shard)[shard]++;
      });
  constexpr uint64_t kRequests = 40;
  for (uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(engine->Retrieve(i % engine->num_pages()).ok());
  }
  engine->WaitIdle();
  std::lock_guard<std::mutex> lock(mutex);
  uint64_t total_real = 0;
  for (uint64_t s = 0; s < engine->shards(); ++s) {
    const uint64_t real = real_per_shard[s];
    const uint64_t dummy = dummy_per_shard[s];
    total_real += real;
    // Cover traffic: each shard sees exactly one query per logical
    // request, so the shard-level load is target-independent.
    EXPECT_EQ(real + dummy, kRequests) << "shard " << s;
  }
  EXPECT_EQ(total_real, kRequests);
  engine->Drain();
}

TEST(ShardedEngineTest, ModifyAndRemoveFanOutLikeRetrieve) {
  auto engine = MakeEngine(SmallOptions(2));
  const Bytes updated = PayloadFor(999, engine->page_size());
  ASSERT_TRUE(engine->Modify(5, updated).ok());
  Result<Bytes> data = engine->Retrieve(5);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, updated);

  ASSERT_TRUE(engine->Remove(40).ok());
  Result<Bytes> gone = engine->Retrieve(40);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  // Neighbors unaffected.
  EXPECT_TRUE(engine->Retrieve(41).ok());
  engine->Drain();
}

/// Parks every shard's round after its write-back until the caller's
/// call has returned, or until a timeout, so a test can see whether the
/// caller was answered before its round finished.
class FinishGate {
 public:
  explicit FinishGate(ShardedPirEngine& engine) {
    for (uint64_t s = 0; s < engine.shards(); ++s) {
      engine.shard_engine(s)->set_relocation_observer(
          [this](PageId, storage::Location, uint64_t) { Wait(); });
    }
  }

  /// Lets every parked and later round finish.
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

  /// Rounds that gave up waiting: their caller was not answered first.
  int timeouts() const { return timeouts_.load(); }

 private:
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, std::chrono::seconds(5),
                      [this] { return open_; })) {
      ++timeouts_;
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<int> timeouts_{0};
};

TEST(ShardedEngineTest, AnswersBeforeTheRoundFinishes) {
  auto engine = MakeEngine(SmallOptions(2));
  FinishGate gate(*engine);
  const Result<Bytes> data = engine->Retrieve(13);
  gate.Open();
  engine->WaitIdle();
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, PayloadFor(13, engine->page_size()));
  EXPECT_EQ(gate.timeouts(), 0);
  engine->Drain();
}

TEST(ShardedEngineTest, ModifyAnsweredEarlyIsSeenByTheNextRetrieve) {
  auto engine = MakeEngine(SmallOptions(2));
  const PageId id = 21;
  const uint64_t owner = engine->plan().OwnerOf(id);
  const Bytes updated = PayloadFor(777, engine->page_size());
  FinishGate gate(*engine);
  EXPECT_TRUE(engine->Modify(id, updated).ok());
  // The Modify's round is still parked on its shard; the next Retrieve,
  // from another thread, queues behind it and must see the new bytes.
  Result<Bytes> seen = Bytes{};
  std::thread reader([&] { seen = engine->Retrieve(id); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine->dispatcher().depth(owner) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  gate.Open();
  reader.join();
  engine->WaitIdle();
  ASSERT_TRUE(seen.ok()) << seen.status();
  EXPECT_EQ(*seen, updated);
  EXPECT_EQ(gate.timeouts(), 0);
  engine->Drain();
}

TEST(ShardedEngineTest, InsertIsUnimplemented) {
  auto engine = MakeEngine(SmallOptions(2));
  Result<PageId> id = engine->Insert(Bytes(engine->page_size()));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kUnimplemented);
  engine->Drain();
}

TEST(ShardedEngineTest, RejectsOutOfRangeId) {
  auto engine = MakeEngine(SmallOptions(2));
  EXPECT_FALSE(engine->Retrieve(engine->num_pages()).ok());
  engine->Drain();
}

TEST(ShardedEngineTest, FullQueueSurfacesResourceExhausted) {
  ShardedPirEngine::Options options = SmallOptions(2);
  options.queue_depth = 1;
  auto engine = MakeEngine(options);
  // Park shard 0's worker and fill its queue so the next fan-out
  // cannot admit its job there.
  std::atomic<bool> release{false};
  ASSERT_TRUE(engine->dispatcher()
                  .Submit(0,
                          [&release](const Status&) {
                            while (!release.load()) {
                              std::this_thread::yield();
                            }
                          })
                  .ok());
  // Fill the parked shard's single slot; retry while the blocker still
  // occupies the queue (before the worker pops it and parks).
  for (;;) {
    const Status filler =
        engine->dispatcher().Submit(0, [](const Status&) {});
    if (filler.ok()) {
      break;
    }
  }
  // Queue 0 is now full and its worker parked: every fan-out must be
  // rejected at admission, leaving no partial cover traffic behind.
  for (int i = 0; i < 3; ++i) {
    Result<Bytes> data = engine->Retrieve(0);
    ASSERT_FALSE(data.ok());
    EXPECT_EQ(data.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(engine->dispatcher().depth(1), 0u);
  }
  release.store(true);
  engine->WaitIdle();
  // Back-pressure is transient: once the queue drains, service resumes.
  EXPECT_TRUE(engine->Retrieve(0).ok());
  engine->Drain();
}

TEST(ShardedEngineTest, ExpiredRealQueryReturnsDeadlineExceeded) {
  ShardedPirEngine::Options options = SmallOptions(2);
  options.deadline = std::chrono::milliseconds(1);
  auto engine = MakeEngine(options);
  std::atomic<bool> release{false};
  // Page 0 lives on shard 0; park that worker so the real query waits
  // in queue past its deadline.
  ASSERT_TRUE(engine->dispatcher()
                  .Submit(0,
                          [&release](const Status&) {
                            while (!release.load()) {
                              std::this_thread::yield();
                            }
                          })
                  .ok());
  Result<Bytes> data = Bytes{};
  std::thread client([&] { data = engine->Retrieve(0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);
  client.join();
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kDeadlineExceeded);
  engine->Drain();
}

TEST(ShardedEngineTest, DrainStopsAdmissionsGracefully) {
  auto engine = MakeEngine(SmallOptions(4));
  ASSERT_TRUE(engine->Retrieve(3).ok());
  engine->Drain();
  Result<Bytes> after = engine->Retrieve(3);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
  engine->Drain();  // Idempotent.
}

TEST(ShardedEngineTest, ExportsAggregateShardMetrics) {
  obs::MetricsRegistry registry;
  auto engine = MakeEngine(SmallOptions(4));
  engine->EnableMetrics(&registry);
  constexpr uint64_t kRequests = 12;
  for (uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(engine->Retrieve(i).ok());
  }
  engine->WaitIdle();
  const auto snapshot = registry.Snapshot();
  uint64_t logical = 0, dummies = 0;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "shpir_shard_logical_queries_total") {
      logical = counter.value;
    } else if (counter.name == "shpir_shard_dummy_queries_total") {
      dummies = counter.value;
    }
    // The observability contract: aggregates only, never per-request
    // identifiers (enforced by obs::IsValidName, re-checked here).
    EXPECT_EQ(counter.name.find("page_id"), std::string::npos);
  }
  EXPECT_EQ(logical, kRequests);
  EXPECT_EQ(dummies, kRequests * (engine->shards() - 1));
  double shard_count = 0;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "shpir_shard_count") {
      shard_count = gauge.value;
    }
  }
  EXPECT_EQ(shard_count, 4.0);
  engine->Drain();
}

// Satellite: multi-client soak — N client threads share one sharded
// engine, each issuing M retrieves; every payload must match and the
// engine must shut down cleanly. Run under TSan in CI to vet the
// dispatcher/fan-out synchronization.
TEST(ShardedEngineTest, MultiClientSoak) {
  ShardedPirEngine::Options options = SmallOptions(4);
  options.num_pages = 128;
  options.queue_depth = 1024;
  auto engine = MakeEngine(options);
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 32;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Deterministic per-client id stream spanning all shards.
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const PageId id =
            static_cast<PageId>((c * 37 + q * 11) % options.num_pages);
        Result<Bytes> data = engine->Retrieve(id);
        if (!data.ok()) {
          // Admission control may push back under burst; retry once
          // after the queues drain.
          engine->WaitIdle();
          data = engine->Retrieve(id);
        }
        if (!data.ok()) {
          ++failures;
        } else if (*data != PayloadFor(id, options.page_size)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  engine->Drain();
  EXPECT_FALSE(engine->Retrieve(0).ok());
}

}  // namespace
}  // namespace shpir::shard
