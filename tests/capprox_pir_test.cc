#include "core/capprox_pir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "common/check.h"
#include "core/engine_stack.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "obs/metrics.h"
#include "storage/access_trace.h"
#include "storage/disk.h"
#include "test_stack.h"

namespace shpir::core {
namespace {

using storage::Page;
using storage::PageId;

constexpr size_t kPageSize = 24;
constexpr size_t kSealedSize = storage::PageCipher::SealedSize(kPageSize);

Bytes PayloadFor(PageId id) {
  Bytes data(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    data[i] = static_cast<uint8_t>(id * 31 + i * 7 + 1);
  }
  return data;
}

/// Every stack a test makes is traced; the fixture keeps the traces
/// alive until the test ends.
class CApproxPirTest : public ::testing::Test {
 protected:
  /// A stack traced into traces_.back() and, unless `load` is false,
  /// loaded with PayloadFor(id) at every page id.
  std::unique_ptr<EngineStack> MakeStack(const CApproxPir::Options& options,
                                         uint64_t seed = 42,
                                         bool load = true) {
    storage::AccessTrace* trace = &traces_.emplace_back();
    if (!load) {
      auto stack = EngineStack::Create(
          options, hardware::HardwareProfile::Ibm4764(), seed, nullptr, trace);
      SHPIR_CHECK(stack.ok());
      return std::move(stack).value();
    }
    std::vector<Page> pages;
    for (PageId id = 0; id < options.num_pages; ++id) {
      pages.emplace_back(id, PayloadFor(id));
    }
    return test::LoadedStack(options, seed, pages, trace);
  }

  std::deque<storage::AccessTrace> traces_;
};
using CApproxPirRetuneTest = CApproxPirTest;

CApproxPir::Options SmallOptions() {
  CApproxPir::Options options;
  options.num_pages = 50;
  options.page_size = kPageSize;
  options.cache_pages = 8;
  options.block_size = 8;
  return options;
}

TEST_F(CApproxPirTest, RetrieveReturnsCorrectPayloads) {
  auto stack = MakeStack(SmallOptions());
  for (PageId id = 0; id < 50; ++id) {
    Result<Bytes> data = stack->engine().Retrieve(id);
    ASSERT_TRUE(data.ok()) << "id=" << id << ": " << data.status();
    EXPECT_EQ(*data, PayloadFor(id)) << "id=" << id;
  }
}

TEST_F(CApproxPirTest, CorrectUnderHeavyRandomChurn) {
  // 2000 random retrieves must all return correct data — this exercises
  // every path: cache hits, block hits, disk reads, evictions.
  auto stack = MakeStack(SmallOptions(), 7);
  crypto::SecureRandom rng(99);
  for (int i = 0; i < 2000; ++i) {
    const PageId id = rng.UniformInt(50);
    Result<Bytes> data = stack->engine().Retrieve(id);
    ASSERT_TRUE(data.ok()) << "query " << i;
    ASSERT_EQ(*data, PayloadFor(id)) << "query " << i << " id " << id;
  }
  // All hit categories must have been exercised.
  const CApproxPir::Stats& stats = stack->engine().stats();
  EXPECT_EQ(stats.queries, 2000u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.block_hits, 0u);
}

TEST_F(CApproxPirTest, RepeatedRequestsForSamePage) {
  auto stack = MakeStack(SmallOptions());
  for (int i = 0; i < 100; ++i) {
    Result<Bytes> data = stack->engine().Retrieve(17);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, PayloadFor(17));
  }
  EXPECT_GT(stack->engine().stats().cache_hits, 50u);
}

TEST_F(CApproxPirTest, PageMapStaysConsistentPermutation) {
  // After heavy churn, the uncached pages' locations must form a
  // permutation of the disk slots and cached pages must fill the cache.
  auto stack = MakeStack(SmallOptions(), 3);
  crypto::SecureRandom rng(4);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(rng.UniformInt(50)).ok());
  }
  const uint64_t id_space =
      stack->engine().disk_slots() + stack->engine().cache_pages();
  std::set<uint64_t> locations;
  uint64_t cached = 0;
  for (PageId id = 0; id < id_space; ++id) {
    if (stack->engine().DebugIsCached(id)) {
      ++cached;
      continue;
    }
    Result<storage::Location> loc = stack->engine().DebugLocation(id);
    ASSERT_TRUE(loc.ok());
    EXPECT_TRUE(locations.insert(*loc).second)
        << "duplicate location " << *loc;
  }
  EXPECT_EQ(cached, stack->engine().cache_pages());
  EXPECT_EQ(locations.size(), stack->engine().disk_slots());
  EXPECT_EQ(*locations.rbegin(), stack->engine().disk_slots() - 1);
}

TEST_F(CApproxPirTest, ConstantCostPerQuery) {
  auto stack = MakeStack(SmallOptions());
  const uint64_t k = stack->engine().block_size();
  crypto::SecureRandom rng(5);
  hardware::CostAccountant::Counters prev = stack->cpu().cost().Snapshot();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(rng.UniformInt(50)).ok());
    const hardware::CostAccountant::Counters now =
        stack->cpu().cost().Snapshot();
    const hardware::CostAccountant::Counters delta = now - prev;
    prev = now;
    // Paper §5: 4 random accesses, k+1 pages transferred twice, k+1
    // pages enciphered + deciphered.
    EXPECT_EQ(delta.seeks, 4u) << i;
    EXPECT_EQ(delta.disk_bytes, 2 * (k + 1) * kSealedSize) << i;
    EXPECT_EQ(delta.link_bytes, 2 * (k + 1) * kSealedSize) << i;
    EXPECT_EQ(delta.crypto_bytes, 2 * (k + 1) * kPageSize) << i;
  }
}

TEST_F(CApproxPirTest, UpdatesAreCostIndistinguishableFromQueries) {
  CApproxPir::Options options = SmallOptions();
  options.insert_reserve = 10;
  auto stack = MakeStack(options);
  const uint64_t k = stack->engine().block_size();
  const auto cost_of = [&](auto&& fn) {
    const auto before = stack->cpu().cost().Snapshot();
    fn();
    const auto delta = stack->cpu().cost().Snapshot() - before;
    EXPECT_EQ(delta.seeks, 4u);
    EXPECT_EQ(delta.disk_bytes, 2 * (k + 1) * kSealedSize);
    return delta;
  };
  cost_of([&] { ASSERT_TRUE(stack->engine().Retrieve(1).ok()); });
  cost_of([&] { ASSERT_TRUE(stack->engine().Modify(2, PayloadFor(99)).ok()); });
  cost_of([&] { ASSERT_TRUE(stack->engine().Remove(3).ok()); });
  cost_of([&] { ASSERT_TRUE(stack->engine().Insert(PayloadFor(77)).ok()); });
}

TEST_F(CApproxPirTest, TraceShapePerQuery) {
  auto stack = MakeStack(SmallOptions());
  traces_.back().Clear();
  const uint64_t k = stack->engine().block_size();
  ASSERT_TRUE(stack->engine().Retrieve(0).ok());
  // k block reads + 1 extra read + k block writes + 1 extra write.
  const auto& events = traces_.back().events();
  ASSERT_EQ(events.size(), 2 * (k + 1));
  uint64_t reads = 0, writes = 0;
  for (const auto& e : events) {
    if (e.op == storage::AccessEvent::Op::kRead) {
      ++reads;
    } else {
      ++writes;
    }
    EXPECT_EQ(e.request_index, 0u);
  }
  EXPECT_EQ(reads, k + 1);
  EXPECT_EQ(writes, k + 1);
  // The first k reads are the round-robin block (slots 0..k-1 on the
  // very first query).
  for (uint64_t i = 0; i < k; ++i) {
    EXPECT_EQ(events[i].location, i);
    EXPECT_EQ(events[i].op, storage::AccessEvent::Op::kRead);
  }
}

// The served point sits between a round's reads and its writes, at the
// same place for Retrieve, Modify and Remove: the sink fires once, after
// exactly the k+1 reads and before any write, and the call returns once
// the k+1 writes are done.
TEST_F(CApproxPirTest, SinkFiresAfterTheReadsAndBeforeAnyWrite) {
  auto stack = MakeStack(SmallOptions());
  CApproxPir& engine = stack->engine();
  const storage::AccessTrace& trace = traces_.back();
  const uint64_t k = engine.block_size();
  // Reads and writes of the latest request so far.
  auto count = [&trace](storage::AccessEvent::Op op) {
    uint64_t n = 0;
    for (const storage::AccessEvent& e : trace.events()) {
      n += e.request_index == trace.num_requests() - 1 && e.op == op;
    }
    return n;
  };
  enum class Call { kRetrieve, kModify, kRemove };
  for (const Call call : {Call::kRetrieve, Call::kModify, Call::kRemove}) {
    for (const PageId id : {3, 17, 41}) {
      const PageId page = id + static_cast<PageId>(call);
      int fired = 0;
      uint64_t reads = 0;
      uint64_t writes = 0;
      Bytes answer{0xFF};
      const CApproxPir::ServedSink sink = [&](Bytes served) {
        ++fired;
        reads = count(storage::AccessEvent::Op::kRead);
        writes = count(storage::AccessEvent::Op::kWrite);
        answer = std::move(served);
      };
      Status status;
      switch (call) {
        case Call::kRetrieve:
          status = engine.TracedRetrieve(page, obs::TraceContext{}, sink);
          break;
        case Call::kModify:
          status = engine.Modify(page, PayloadFor(page + 100), sink);
          break;
        case Call::kRemove:
          status = engine.Remove(page, sink);
          break;
      }
      ASSERT_TRUE(status.ok()) << status;
      EXPECT_EQ(fired, 1) << "page " << page;
      EXPECT_EQ(reads, k + 1) << "page " << page;
      EXPECT_EQ(writes, 0u) << "page " << page;
      EXPECT_EQ(count(storage::AccessEvent::Op::kWrite), k + 1);
      EXPECT_EQ(answer, call == Call::kRetrieve ? PayloadFor(page) : Bytes());
    }
  }
  // The early answer changed nothing the next round sees.
  const Result<Bytes> modified = engine.Retrieve(18);
  ASSERT_TRUE(modified.ok()) << modified.status();
  EXPECT_EQ(*modified, PayloadFor(118));
  EXPECT_EQ(engine.Retrieve(19).status().code(), StatusCode::kNotFound);
}

TEST_F(CApproxPirTest, RoundRobinBlockSchedule) {
  auto stack = MakeStack(SmallOptions());
  const uint64_t k = stack->engine().block_size();
  const uint64_t T = stack->engine().scan_period();
  traces_.back().Clear();
  for (uint64_t q = 0; q < T + 2; ++q) {
    ASSERT_TRUE(stack->engine().Retrieve(q % 50).ok());
  }
  // Query q must start reading at block (q mod T) * k.
  const auto& events = traces_.back().events();
  uint64_t idx = 0;
  for (uint64_t q = 0; q < T + 2; ++q) {
    EXPECT_EQ(events[idx].location, (q % T) * k) << "query " << q;
    idx += 2 * (k + 1);
  }
}

TEST_F(CApproxPirTest, ModifyThenRetrieve) {
  auto stack = MakeStack(SmallOptions());
  const Bytes new_data = PayloadFor(1234);
  ASSERT_TRUE(stack->engine().Modify(10, new_data).ok());
  Result<Bytes> data = stack->engine().Retrieve(10);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, new_data);
  // Modify a page that is currently cached.
  ASSERT_TRUE(stack->engine().Retrieve(11).ok());
  if (stack->engine().DebugIsCached(11)) {
    const Bytes other = PayloadFor(4321);
    ASSERT_TRUE(stack->engine().Modify(11, other).ok());
    EXPECT_EQ(*stack->engine().Retrieve(11), other);
  }
}

TEST_F(CApproxPirTest, ModifyUnderChurnPersists) {
  auto stack = MakeStack(SmallOptions(), 21);
  crypto::SecureRandom rng(22);
  ASSERT_TRUE(stack->engine().Modify(5, PayloadFor(500)).ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(rng.UniformInt(50)).ok());
  }
  EXPECT_EQ(*stack->engine().Retrieve(5), PayloadFor(500));
}

TEST_F(CApproxPirTest, RemoveMakesPageUnreachable) {
  auto stack = MakeStack(SmallOptions());
  ASSERT_TRUE(stack->engine().Remove(7).ok());
  Result<Bytes> data = stack->engine().Retrieve(7);
  EXPECT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kNotFound);
  // Other pages unaffected.
  EXPECT_EQ(*stack->engine().Retrieve(8), PayloadFor(8));
}

TEST_F(CApproxPirTest, RemoveCachedPage) {
  auto stack = MakeStack(SmallOptions());
  // Pull page 9 into the cache, then delete it.
  ASSERT_TRUE(stack->engine().Retrieve(9).ok());
  ASSERT_TRUE(stack->engine().Remove(9).ok());
  // The dead page must no longer occupy a cache slot.
  EXPECT_FALSE(stack->engine().DebugIsCached(9));
  EXPECT_FALSE(stack->engine().Retrieve(9).ok());
}

TEST_F(CApproxPirTest, InsertReturnsRetrievablePage) {
  CApproxPir::Options options = SmallOptions();
  options.insert_reserve = 5;
  auto stack = MakeStack(options);
  const Bytes payload = PayloadFor(999);
  Result<PageId> id = stack->engine().Insert(payload);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_GE(*id, options.num_pages);
  Result<Bytes> data = stack->engine().Retrieve(*id);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, payload);
}

TEST_F(CApproxPirTest, InsertSurvivesChurn) {
  CApproxPir::Options options = SmallOptions();
  options.insert_reserve = 5;
  auto stack = MakeStack(options, 31);
  Result<PageId> id = stack->engine().Insert(PayloadFor(600));
  ASSERT_TRUE(id.ok());
  crypto::SecureRandom rng(32);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(rng.UniformInt(50)).ok());
  }
  EXPECT_EQ(*stack->engine().Retrieve(*id), PayloadFor(600));
}

TEST_F(CApproxPirTest, RemoveThenInsertReusesSlot) {
  auto stack = MakeStack(SmallOptions());  // No insert reserve...
  // ...but dummies from padding + cache seeding are available, so drain
  // them first to prove Remove replenishes the pool.
  int inserted = 0;
  while (stack->engine().Insert(PayloadFor(1)).ok()) {
    ++inserted;
  }
  EXPECT_GT(inserted, 0);
  ASSERT_TRUE(stack->engine().Remove(0).ok());
  Result<PageId> id = stack->engine().Insert(PayloadFor(2));
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*stack->engine().Retrieve(*id), PayloadFor(2));
}

TEST_F(CApproxPirTest, MixedWorkloadEndToEnd) {
  CApproxPir::Options options = SmallOptions();
  options.insert_reserve = 20;
  auto stack = MakeStack(options, 77);
  crypto::SecureRandom rng(78);
  // Shadow model of expected contents.
  std::vector<std::pair<PageId, Bytes>> live;
  for (PageId id = 0; id < options.num_pages; ++id) {
    live.emplace_back(id, PayloadFor(id));
  }
  for (int step = 0; step < 600; ++step) {
    const uint64_t action = rng.UniformInt(10);
    if (action < 6 && !live.empty()) {
      const size_t pick = rng.UniformInt(live.size());
      Result<Bytes> data = stack->engine().Retrieve(live[pick].first);
      ASSERT_TRUE(data.ok()) << "step " << step;
      ASSERT_EQ(*data, live[pick].second) << "step " << step;
    } else if (action < 8 && !live.empty()) {
      const size_t pick = rng.UniformInt(live.size());
      Bytes data = PayloadFor(rng.UniformInt(100000));
      ASSERT_TRUE(stack->engine().Modify(live[pick].first, data).ok());
      live[pick].second = data;
    } else if (action == 8 && !live.empty()) {
      const size_t pick = rng.UniformInt(live.size());
      ASSERT_TRUE(stack->engine().Remove(live[pick].first).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      Bytes data = PayloadFor(rng.UniformInt(100000));
      Result<PageId> id = stack->engine().Insert(data);
      if (id.ok()) {
        live.emplace_back(*id, data);
      }
    }
  }
  // Final sweep: everything still correct.
  for (const auto& [id, data] : live) {
    ASSERT_EQ(*stack->engine().Retrieve(id), data) << "final sweep id " << id;
  }
}

TEST_F(CApproxPirTest, RelocationObserverFiresOncePerQuery) {
  auto stack = MakeStack(SmallOptions());
  uint64_t events = 0;
  uint64_t last_request = 0;
  stack->engine().set_relocation_observer(
      [&](PageId, storage::Location loc, uint64_t request_index) {
        ++events;
        last_request = request_index;
        EXPECT_LT(loc, stack->engine().disk_slots());
      });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(static_cast<PageId>(i)).ok());
  }
  EXPECT_EQ(events, 20u);
  EXPECT_EQ(last_request, 19u);
}

TEST_F(CApproxPirTest, PrivacyDerivedBlockSize) {
  CApproxPir::Options options;
  options.num_pages = 2000;
  options.page_size = kPageSize;
  options.cache_pages = 50;
  options.privacy_c = 2.0;
  options.block_size = 0;  // Derive via Eq. 6.
  auto stack = MakeStack(options);
  EXPECT_GT(stack->engine().block_size(), 1u);
  EXPECT_LE(stack->engine().achieved_privacy(), 2.0 * 1.01);
  EXPECT_GT(stack->engine().achieved_privacy(), 1.0);
  EXPECT_EQ(*stack->engine().Retrieve(123), PayloadFor(123));
}

TEST_F(CApproxPirTest, SecureMemoryEnforced) {
  CApproxPir::Options options = SmallOptions();
  storage::MemoryDisk disk(*CApproxPir::DiskSlots(options), kSealedSize);
  hardware::HardwareProfile profile = hardware::HardwareProfile::Ibm4764();
  profile.secure_memory_bytes = 100;  // Far too small.
  Result<std::unique_ptr<hardware::SecureCoprocessor>> cpu =
      hardware::SecureCoprocessor::Create(profile, &disk, kPageSize, 1);
  ASSERT_TRUE(cpu.ok());
  Result<std::unique_ptr<CApproxPir>> engine =
      CApproxPir::Create(cpu->get(), options);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CApproxPirTest, SecureMemoryReleasedOnDestruction) {
  CApproxPir::Options options = SmallOptions();
  storage::MemoryDisk disk(*CApproxPir::DiskSlots(options), kSealedSize);
  Result<std::unique_ptr<hardware::SecureCoprocessor>> cpu =
      hardware::SecureCoprocessor::Create(hardware::HardwareProfile::Ibm4764(),
                                          &disk, kPageSize, 1);
  ASSERT_TRUE(cpu.ok());
  {
    Result<std::unique_ptr<CApproxPir>> engine =
        CApproxPir::Create(cpu->get(), options);
    ASSERT_TRUE(engine.ok());
    EXPECT_GT((*cpu)->secure_memory_used(), 0u);
  }
  EXPECT_EQ((*cpu)->secure_memory_used(), 0u);
}

TEST_F(CApproxPirTest, CreateValidation) {
  CApproxPir::Options options = SmallOptions();
  storage::MemoryDisk disk(*CApproxPir::DiskSlots(options), kSealedSize);
  Result<std::unique_ptr<hardware::SecureCoprocessor>> cpu =
      hardware::SecureCoprocessor::Create(hardware::HardwareProfile::Ibm4764(),
                                          &disk, kPageSize, 1);
  ASSERT_TRUE(cpu.ok());

  EXPECT_FALSE(CApproxPir::Create(nullptr, options).ok());

  CApproxPir::Options bad = options;
  bad.num_pages = 0;
  EXPECT_FALSE(CApproxPir::Create(cpu->get(), bad).ok());
  bad = options;
  bad.cache_pages = 1;
  EXPECT_FALSE(CApproxPir::Create(cpu->get(), bad).ok());
  bad = options;
  bad.block_size = 0;
  bad.privacy_c = 1.0;
  EXPECT_FALSE(CApproxPir::Create(cpu->get(), bad).ok());

  // Wrong disk geometry.
  storage::MemoryDisk wrong_disk(13, kSealedSize);
  Result<std::unique_ptr<hardware::SecureCoprocessor>> cpu2 =
      hardware::SecureCoprocessor::Create(hardware::HardwareProfile::Ibm4764(),
                                          &wrong_disk, kPageSize, 1);
  ASSERT_TRUE(cpu2.ok());
  EXPECT_FALSE(CApproxPir::Create(cpu2->get(), options).ok());
}

TEST_F(CApproxPirTest, OperationsBeforeInitializeFail) {
  auto stack = MakeStack(SmallOptions(), 42, /*load=*/false);
  EXPECT_EQ(stack->engine().Retrieve(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(stack->engine().Insert(Bytes(4, 0)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CApproxPirTest, DoubleInitializeFails) {
  auto stack = MakeStack(SmallOptions());
  EXPECT_EQ(stack->engine().Initialize({}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CApproxPirTest, RejectsOutOfRangeIds) {
  auto stack = MakeStack(SmallOptions());
  EXPECT_FALSE(stack->engine().Retrieve(50).ok());  // Dummies not addressable.
  EXPECT_FALSE(stack->engine().Retrieve(100000).ok());
  EXPECT_FALSE(stack->engine().Modify(50, Bytes(4, 0)).ok());
  EXPECT_FALSE(stack->engine().Remove(50).ok());
}

TEST_F(CApproxPirTest, RejectsOversizedPayloads) {
  CApproxPir::Options options = SmallOptions();
  options.insert_reserve = 2;
  auto stack = MakeStack(options);
  EXPECT_FALSE(stack->engine().Modify(0, Bytes(kPageSize + 1, 0)).ok());
  EXPECT_FALSE(stack->engine().Insert(Bytes(kPageSize + 1, 0)).ok());
}

TEST_F(CApproxPirTest, ShortPayloadsZeroPadded) {
  auto stack = MakeStack(SmallOptions());
  ASSERT_TRUE(stack->engine().Modify(0, Bytes{1, 2, 3}).ok());
  Result<Bytes> data = stack->engine().Retrieve(0);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->size(), kPageSize);
  EXPECT_EQ((*data)[0], 1);
  EXPECT_EQ((*data)[2], 3);
  EXPECT_EQ((*data)[3], 0);
}

// Pages loaded with payloads shorter than B answer B bytes, zero-padded,
// whether they start in the cache or on disk, and the state serialized
// right after loading, with those pages in the cache, restores.
TEST_F(CApproxPirTest, ShortLoadedPayloadsAnswerWholePages) {
  CApproxPir::Options options;
  options.num_pages = 64;
  options.page_size = 16;
  options.cache_pages = 8;
  options.block_size = 4;
  std::vector<Page> pages;
  for (PageId id = 0; id < options.num_pages; ++id) {
    Bytes payload(10);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(id * 13 + i + 1);
    }
    pages.emplace_back(id, std::move(payload));
  }
  // Retrieves every page, the ones cached at the start first, before a
  // round can move them through the disk.
  const auto expect_whole_pages = [&](CApproxPir& engine) {
    std::vector<PageId> order;
    for (PageId id = 0; id < options.num_pages; ++id) {
      if (engine.DebugIsCached(id)) {
        order.push_back(id);
      }
    }
    ASSERT_EQ(order.size(), options.cache_pages);
    for (PageId id = 0; id < options.num_pages; ++id) {
      if (std::find(order.begin(), order.end(), id) == order.end()) {
        order.push_back(id);
      }
    }
    for (const PageId id : order) {
      Bytes expected = pages[id].data;
      expected.resize(options.page_size, 0);
      EXPECT_EQ(*engine.Retrieve(id), expected) << "page " << id;
    }
  };

  expect_whole_pages(test::LoadedStack(options, 3, pages)->engine());

  storage::MemoryDisk disk(*CApproxPir::DiskSlots(options),
                           storage::PageCipher::SealedSize(options.page_size));
  Bytes state;
  {
    auto loaded = test::LoadedStack(options, 3, pages, nullptr, &disk);
    Result<Bytes> serialized = loaded->engine().SerializeState();
    ASSERT_TRUE(serialized.ok());
    state = *serialized;
  }
  auto restored = EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), 3, &disk);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->engine().RestoreState(state).ok());
  expect_whole_pages((*restored)->engine());
}

TEST_F(CApproxPirTest, TinyConfigurations) {
  // Smallest viable setups must still work.
  for (uint64_t m : {2u, 3u}) {
    for (uint64_t k : {1u, 2u, 3u}) {
      CApproxPir::Options options;
      options.num_pages = 6;
      options.page_size = kPageSize;
      options.cache_pages = m;
      options.block_size = k;
      auto stack = MakeStack(options, 1000 + m * 10 + k);
      crypto::SecureRandom rng(m * 100 + k);
      for (int i = 0; i < 200; ++i) {
        const PageId id = rng.UniformInt(6);
        ASSERT_EQ(*stack->engine().Retrieve(id), PayloadFor(id))
            << "m=" << m << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST_F(CApproxPirTest, StatsTracking) {
  CApproxPir::Options options = SmallOptions();
  options.insert_reserve = 4;
  auto stack = MakeStack(options);
  ASSERT_TRUE(stack->engine().Retrieve(0).ok());
  ASSERT_TRUE(stack->engine().Modify(1, Bytes{9}).ok());
  ASSERT_TRUE(stack->engine().Remove(2).ok());
  ASSERT_TRUE(stack->engine().Insert(Bytes{8}).ok());
  const CApproxPir::Stats& stats = stack->engine().stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.modifies, 1u);
  EXPECT_EQ(stats.removes, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST_F(CApproxPirTest, DiskSlotsPadsToBlockMultiple) {
  CApproxPir::Options options = SmallOptions();  // n=50, k=8.
  Result<uint64_t> slots = CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());
  EXPECT_EQ(*slots % 8, 0u);
  EXPECT_GE(*slots, 56u);  // >= n rounded up.
}

TEST_F(CApproxPirTest, PartialLoadZeroFillsMissingPages) {
  CApproxPir::Options options = SmallOptions();
  auto stack = MakeStack(options, 42, /*load=*/false);
  std::vector<Page> pages;
  pages.emplace_back(0, PayloadFor(0));  // Only page 0 provided.
  ASSERT_TRUE(stack->engine().Initialize(pages).ok());
  EXPECT_EQ(*stack->engine().Retrieve(0), PayloadFor(0));
  EXPECT_EQ(*stack->engine().Retrieve(1), Bytes(kPageSize, 0));
}

TEST_F(CApproxPirTest, MetricsMirrorEngineActivity) {
  CApproxPir::Options options = SmallOptions();
  options.insert_reserve = 4;
  // The registry must outlive the rig: destructors release secure memory
  // through attached gauges.
  obs::MetricsRegistry registry;
  auto stack = MakeStack(options);
  stack->engine().EnableMetrics(&registry);

  for (PageId id = 0; id < 10; ++id) {
    ASSERT_TRUE(stack->engine().Retrieve(id).ok());
  }
  ASSERT_TRUE(stack->engine().Modify(3, PayloadFor(3)).ok());
  ASSERT_TRUE(stack->engine().Remove(5).ok());
  Result<PageId> inserted = stack->engine().Insert(PayloadFor(7));
  ASSERT_TRUE(inserted.ok());
  ASSERT_TRUE(stack->engine().OfflineReshuffle().ok());
  ASSERT_TRUE(stack->engine().RotateKeys().ok());

  auto counter = [&](const std::string& name) {
    return registry.FindOrCreateCounter(name)->Value();
  };
  // 10 retrieves + modify + remove + insert all run rounds.
  EXPECT_EQ(counter("shpir_engine_queries_total"), 13u);
  EXPECT_EQ(counter("shpir_engine_evictions_total"), 13u);
  EXPECT_EQ(counter("shpir_engine_modifies_total"), 1u);
  EXPECT_EQ(counter("shpir_engine_removes_total"), 1u);
  EXPECT_EQ(counter("shpir_engine_inserts_total"), 1u);
  EXPECT_EQ(counter("shpir_engine_reshuffles_total"), 2u);
  EXPECT_EQ(counter("shpir_engine_key_rotations_total"), 1u);
  // The counter mirrors agree with the legacy Stats struct.
  EXPECT_EQ(counter("shpir_engine_cache_hits_total"),
            stack->engine().stats().cache_hits);
  EXPECT_EQ(counter("shpir_engine_block_hits_total"),
            stack->engine().stats().block_hits);

  // Gauges expose the round-robin cursor and the paper's parameters.
  auto gauge = [&](const std::string& name) {
    return registry.FindOrCreateGauge(name)->Value();
  };
  EXPECT_EQ(gauge("shpir_engine_block_cursor"), 0.0);  // Reshuffle reset.
  EXPECT_DOUBLE_EQ(gauge("shpir_engine_achieved_privacy_c"),
                   stack->engine().achieved_privacy());
  EXPECT_DOUBLE_EQ(gauge("shpir_engine_block_size_k"),
                   static_cast<double>(stack->engine().block_size()));
  EXPECT_DOUBLE_EQ(gauge("shpir_engine_cache_pages_m"), 8.0);

  // Latency histograms: one whole-query sample per round, one sample per
  // phase per round.
  obs::Histogram* latency =
      registry.FindOrCreateHistogram("shpir_engine_query_latency_ns");
  EXPECT_EQ(latency->Count(), 13u);
  EXPECT_GT(latency->Sum(), 0u);
  obs::Histogram* reencrypt =
      registry.FindOrCreateHistogram("shpir_engine_phase_reencrypt_ns");
  EXPECT_EQ(reencrypt->Count(), 13u);

  // Disabling restores the unmetered path; counters stop moving.
  stack->engine().EnableMetrics(nullptr);
  ASSERT_TRUE(stack->engine().Retrieve(0).ok());
  EXPECT_EQ(counter("shpir_engine_queries_total"), 13u);
  EXPECT_EQ(latency->Count(), 13u);
}

TEST_F(CApproxPirTest, MetricsDoNotPerturbResults) {
  // Instrumented and uninstrumented engines with the same seed must make
  // identical RNG draws, hence identical disk layouts and results.
  CApproxPir::Options options = SmallOptions();
  obs::MetricsRegistry registry;
  auto plain = MakeStack(options, 99);
  auto metered = MakeStack(options, 99);
  metered->engine().EnableMetrics(&registry);
  for (PageId id = 0; id < 30; ++id) {
    Result<Bytes> a = plain->engine().Retrieve(id % 50);
    Result<Bytes> b = metered->engine().Retrieve(id % 50);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
  }
  // Identical adversary-visible access sequences.
  EXPECT_EQ(traces_[0].events().size(), traces_[1].events().size());
  EXPECT_TRUE(std::equal(traces_[0].events().begin(),
                         traces_[0].events().end(),
                         traces_[1].events().begin()));
}

// --- Online block-size retuning (the privacy/cost dial, live) ----------

/// 60 pages + 4 reserve = 64 slots: divisors give a rich retune ladder.
CApproxPir::Options RetuneOptions() {
  CApproxPir::Options options;
  options.num_pages = 60;
  options.page_size = kPageSize;
  options.cache_pages = 8;
  options.block_size = 8;
  options.insert_reserve = 4;
  return options;
}

TEST_F(CApproxPirRetuneTest, ValidatesRequestedBlockSizes) {
  auto stack = MakeStack(RetuneOptions());
  ASSERT_EQ(stack->engine().disk_slots(), 64u);

  EXPECT_FALSE(stack->engine().RequestBlockSize(0).ok());
  EXPECT_FALSE(stack->engine().RequestBlockSize(7).ok());   // Not a divisor.
  EXPECT_FALSE(stack->engine().RequestBlockSize(24).ok());  // Not a divisor.
  EXPECT_FALSE(stack->engine().RequestBlockSize(64).ok());  // 2k > slots.
  EXPECT_TRUE(stack->engine().RequestBlockSize(32).ok());
  EXPECT_TRUE(stack->engine().RequestBlockSize(16).ok());

  auto cold = MakeStack(RetuneOptions(), 42, /*load=*/false);
  EXPECT_FALSE(cold->engine().RequestBlockSize(16).ok());
}

TEST_F(CApproxPirRetuneTest, AppliesOnlyAtScanPeriodBoundary) {
  auto stack = MakeStack(RetuneOptions());
  ASSERT_EQ(stack->engine().scan_period(), 8u);

  // Walk three rounds into the scan, then request a retune: it must
  // stay pending until the block cursor wraps, never landing mid-scan.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(0).ok());
  }
  ASSERT_TRUE(stack->engine().RequestBlockSize(16).ok());
  EXPECT_EQ(stack->engine().pending_block_size(), 16u);

  for (int i = 3; i < 8; ++i) {  // Rounds 4..8 finish the scan.
    ASSERT_TRUE(stack->engine().Retrieve(0).ok());
    EXPECT_EQ(stack->engine().published_block_size(), 8u);
    EXPECT_EQ(stack->engine().block_size_transitions(), 0u);
  }
  // The next round starts a fresh scan and applies the transition.
  ASSERT_TRUE(stack->engine().Retrieve(0).ok());
  EXPECT_EQ(stack->engine().published_block_size(), 16u);
  EXPECT_EQ(stack->engine().pending_block_size(), 0u);
  EXPECT_EQ(stack->engine().block_size_transitions(), 1u);
  EXPECT_EQ(stack->engine().scan_period(), 4u);  // 64 / 16.
}

TEST_F(CApproxPirRetuneTest, RequestingCurrentSizeCancelsPending) {
  auto stack = MakeStack(RetuneOptions());
  ASSERT_TRUE(stack->engine().Retrieve(0).ok());  // Leave the boundary.
  ASSERT_TRUE(stack->engine().RequestBlockSize(16).ok());
  EXPECT_EQ(stack->engine().pending_block_size(), 16u);
  ASSERT_TRUE(stack->engine().RequestBlockSize(8).ok());
  EXPECT_EQ(stack->engine().pending_block_size(), 0u);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(0).ok());
  }
  EXPECT_EQ(stack->engine().published_block_size(), 8u);
  EXPECT_EQ(stack->engine().block_size_transitions(), 0u);
}

TEST_F(CApproxPirRetuneTest, LaterRequestReplacesPending) {
  auto stack = MakeStack(RetuneOptions());
  ASSERT_TRUE(stack->engine().Retrieve(0).ok());
  ASSERT_TRUE(stack->engine().RequestBlockSize(32).ok());
  ASSERT_TRUE(stack->engine().RequestBlockSize(4).ok());
  EXPECT_EQ(stack->engine().pending_block_size(), 4u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(0).ok());
  }
  EXPECT_EQ(stack->engine().published_block_size(), 4u);
  EXPECT_EQ(stack->engine().block_size_transitions(), 1u);
}

TEST_F(CApproxPirRetuneTest, DataSurvivesRepeatedRetunes) {
  auto stack = MakeStack(RetuneOptions());
  const std::vector<uint64_t> schedule = {16, 4, 32, 8, 2, 16};
  uint64_t expected_transitions = 0;
  for (const uint64_t k : schedule) {
    ASSERT_TRUE(stack->engine().RequestBlockSize(k).ok());
    // Drive well past a boundary, reading every page: payloads must be
    // intact across every transition.
    for (PageId id = 0; id < 60; ++id) {
      Result<Bytes> got = stack->engine().Retrieve(id);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, PayloadFor(id)) << "page " << id << " under k=" << k;
    }
    ++expected_transitions;
    EXPECT_EQ(stack->engine().published_block_size(), k);
    EXPECT_EQ(stack->engine().block_size_transitions(), expected_transitions);
  }
}

TEST_F(CApproxPirRetuneTest, GrowthReservesSecureMemoryUpFront) {
  // The Eq. 7 budget must cover the larger block buffer from request
  // time: a target the device cannot fit is rejected immediately and
  // leaves no pending transition behind.
  auto stack = MakeStack(RetuneOptions());
  // Eat the device's remaining secure memory down to (at most) a few
  // bytes, far less than the (32 - 8) extra buffer pages k=32 needs.
  for (const uint64_t chunk : {uint64_t{1} << 20, uint64_t{1} << 10,
                               uint64_t{16}}) {
    while (stack->cpu().ReserveSecureMemory(chunk, "test ballast").ok()) {
    }
  }
  const Status grown = stack->engine().RequestBlockSize(32);
  EXPECT_EQ(grown.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stack->engine().pending_block_size(), 0u);
  // Shrinking needs no new reservation and still works; the engine
  // keeps serving correctly at the reduced k.
  ASSERT_TRUE(stack->engine().RequestBlockSize(4).ok());
  for (PageId id = 0; id < 20; ++id) {
    Result<Bytes> got = stack->engine().Retrieve(id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, PayloadFor(id));
  }
  EXPECT_EQ(stack->engine().published_block_size(), 4u);
}

}  // namespace
}  // namespace shpir::core
