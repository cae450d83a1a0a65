#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "crypto/secure_random.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"
#include "storage/disk.h"
#include "test_stack.h"

namespace shpir {
namespace {

using storage::Location;
using storage::MemoryDisk;

constexpr size_t kPageSize = 24;
constexpr size_t kSealedSize = storage::PageCipher::SealedSize(kPageSize);

/// Disk decorator that starts failing after a budget of operations, or
/// corrupts reads — simulates media failures under the engine.
class FaultyDisk : public storage::Disk {
 public:
  explicit FaultyDisk(storage::Disk* inner) : inner_(inner) {}

  void FailAfter(uint64_t ops) { remaining_ = ops; }
  void CorruptReads(bool corrupt) { corrupt_reads_ = corrupt; }
  /// Fails every write while set; reads still work.
  void FailWrites(bool fail) { fail_writes_ = fail; }

  uint64_t num_slots() const override { return inner_->num_slots(); }
  size_t slot_size() const override { return inner_->slot_size(); }

  Status Read(Location loc, MutableByteSpan out) override {
    SHPIR_RETURN_IF_ERROR(Tick());
    SHPIR_RETURN_IF_ERROR(inner_->Read(loc, out));
    if (corrupt_reads_) {
      out[0] ^= 0xFF;
    }
    return OkStatus();
  }

  Status Write(Location loc, ByteSpan data) override {
    SHPIR_RETURN_IF_ERROR(Tick());
    if (fail_writes_) {
      return InternalError("injected write failure");
    }
    return inner_->Write(loc, data);
  }

 private:
  Status Tick() {
    if (remaining_ == 0) {
      return InternalError("injected disk failure");
    }
    if (remaining_ != UINT64_MAX) {
      --remaining_;
    }
    return OkStatus();
  }

  storage::Disk* inner_;
  uint64_t remaining_ = UINT64_MAX;
  bool corrupt_reads_ = false;
  bool fail_writes_ = false;
};

Bytes PayloadFor(storage::PageId id) {
  return Bytes(kPageSize, static_cast<uint8_t>(id + 1));
}

std::vector<storage::Page> DistinctPages(uint64_t n) {
  std::vector<storage::Page> pages;
  for (storage::PageId id = 0; id < n; ++id) {
    pages.emplace_back(id, PayloadFor(id));
  }
  return pages;
}

struct Rig {
  std::unique_ptr<MemoryDisk> inner;
  std::unique_ptr<FaultyDisk> disk;
  std::unique_ptr<core::EngineStack> stack;

  static Rig Make(uint64_t seed,
                  const std::vector<storage::Page>& pages = {}) {
    core::CApproxPir::Options options;
    options.num_pages = 40;
    options.page_size = kPageSize;
    options.cache_pages = 4;
    options.block_size = 8;
    Rig rig;
    Result<uint64_t> slots = core::CApproxPir::DiskSlots(options);
    SHPIR_CHECK(slots.ok());
    rig.inner = std::make_unique<MemoryDisk>(*slots, kSealedSize);
    rig.disk = std::make_unique<FaultyDisk>(rig.inner.get());
    rig.stack =
        test::LoadedStack(options, seed, pages, nullptr, rig.disk.get());
    return rig;
  }
};

TEST(FaultInjectionTest, ReadFailureSurfacesAsError) {
  Rig rig = Rig::Make(1);
  rig.disk->FailAfter(0);
  Result<Bytes> data = rig.stack->engine().Retrieve(0);
  EXPECT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kInternal);
}

TEST(FaultInjectionTest, MidRoundFailureSurfacesAsError) {
  Rig rig = Rig::Make(2);
  // Fail in the middle of the block read (8 reads + 1 extra + writes).
  rig.disk->FailAfter(3);
  EXPECT_FALSE(rig.stack->engine().Retrieve(0).ok());
  // Fail during write-back.
  Rig rig2 = Rig::Make(3);
  rig2.disk->FailAfter(10);  // Past the 9 reads, into the writes.
  EXPECT_FALSE(rig2.stack->engine().Retrieve(0).ok());
}

TEST(FaultInjectionTest, CorruptedCiphertextDetectedAsDataLoss) {
  Rig rig = Rig::Make(4);
  rig.disk->CorruptReads(true);
  Result<Bytes> data = rig.stack->engine().Retrieve(0);
  EXPECT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kDataLoss);
}

TEST(FaultInjectionTest, RecoversWhenFaultClears) {
  Rig rig = Rig::Make(5);
  rig.disk->CorruptReads(true);
  EXPECT_FALSE(rig.stack->engine().Retrieve(0).ok());
  rig.disk->CorruptReads(false);
  // A transient MAC failure during the read phase did not mutate any
  // state: the engine keeps serving (the round-robin cursor advanced,
  // which is harmless).
  Result<Bytes> data = rig.stack->engine().Retrieve(0);
  EXPECT_TRUE(data.ok()) << data.status();
}

// A round whose write-back fails has already moved pages between the
// cache and the block, so it commits and the engine re-sends its write
// before anything else runs. While that write still fails, every call
// answers with its error, never with another page's bytes; once it
// lands, every page reads back as last written, the failed Modify's
// bytes included.
TEST(FaultInjectionTest, FailedWriteBackRollsForward) {
  constexpr uint64_t kPages = 40;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rig rig = Rig::Make(seed, DistinctPages(kPages));
    core::CApproxPir& engine = rig.stack->engine();
    std::vector<Bytes> expected;
    for (storage::PageId id = 0; id < kPages; ++id) {
      expected.push_back(PayloadFor(id));
    }
    const storage::PageId target = seed % kPages;
    rig.disk->FailWrites(true);
    if (seed % 2 == 0) {
      EXPECT_FALSE(engine.Retrieve(target).ok());
    } else {
      expected[target] = Bytes(kPageSize, 0xEE);
      EXPECT_FALSE(engine.Modify(target, expected[target]).ok());
    }
    EXPECT_EQ(engine.SerializeState().status().code(),
              StatusCode::kFailedPrecondition);
    for (storage::PageId id = 0; id < kPages; ++id) {
      const Result<Bytes> data = engine.Retrieve(id);
      if (data.ok()) {
        EXPECT_EQ(*data, expected[id]) << "page " << id;
      } else {
        EXPECT_EQ(data.status().message(), "injected write failure");
      }
    }
    rig.disk->FailWrites(false);
    for (int pass = 0; pass < 2; ++pass) {
      for (storage::PageId id = 0; id < kPages; ++id) {
        const Result<Bytes> data = engine.Retrieve(id);
        ASSERT_TRUE(data.ok()) << "page " << id << ": " << data.status();
        EXPECT_EQ(*data, expected[id]) << "page " << id;
      }
    }
    EXPECT_TRUE(engine.SerializeState().ok());
  }
}

// A provider that swaps two sealed slots hands back pages that open
// cleanly (the MAC binds a page's id to its bytes, not to its slot) but
// sit where the pageMap does not place them. Every round checks every
// page it reads against the pageMap, so the rounds that read them fail
// with DATA_LOSS and none answers another page's bytes.
TEST(FaultInjectionTest, SwappedSlotsAreDataLoss) {
  constexpr uint64_t kPages = 40;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rig rig = Rig::Make(seed, DistinctPages(kPages));
    Bytes slot2(kSealedSize);
    Bytes slot3(kSealedSize);
    ASSERT_TRUE(rig.inner->Read(2, slot2).ok());
    ASSERT_TRUE(rig.inner->Read(3, slot3).ok());
    ASSERT_TRUE(rig.inner->Write(2, slot3).ok());
    ASSERT_TRUE(rig.inner->Write(3, slot2).ok());
    // The first round scans slots 0-7.
    const Result<Bytes> first = rig.stack->engine().Retrieve(seed % kPages);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);
    for (storage::PageId id = 0; id < kPages; ++id) {
      const Result<Bytes> data = rig.stack->engine().Retrieve(id);
      if (data.ok()) {
        EXPECT_EQ(*data, PayloadFor(id)) << "page " << id;
      } else {
        EXPECT_EQ(data.status().code(), StatusCode::kDataLoss);
      }
    }
  }
}

// The sharded runtime answers at the served point, so a shard's
// write-back can fail after its caller holds an OK answer. The shard
// counts and logs the failed finish, answers with the write's error
// while it keeps failing, and rolls the write forward once the disk
// recovers: every page then reads back as last written.
TEST(FaultInjectionTest, ShardedWriteBackFailureRollsForward) {
  constexpr uint64_t kPages = 64;
  shard::ShardedPirEngine::Options options;
  options.num_pages = kPages;
  options.page_size = kPageSize;
  options.cache_pages = 8;
  options.privacy_c = 2.0;
  options.shards = 2;
  options.seed = 7;
  // Shard disks of the geometry the engine asks for, read off a probe.
  std::vector<std::unique_ptr<MemoryDisk>> inner;
  std::vector<std::unique_ptr<FaultyDisk>> disks;
  {
    auto probe = shard::ShardedPirEngine::Create(options);
    ASSERT_TRUE(probe.ok()) << probe.status();
    for (uint64_t s = 0; s < 2; ++s) {
      inner.push_back(std::make_unique<MemoryDisk>(
          (*probe)->shard_device(s)->disk()->num_slots(), kSealedSize));
      disks.push_back(std::make_unique<FaultyDisk>(inner.back().get()));
      options.disks.push_back(disks.back().get());
    }
  }
  obs::MetricsRegistry metrics;
  obs::EventLog log;
  auto created = shard::ShardedPirEngine::Create(options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<shard::ShardedPirEngine> engine = std::move(*created);
  ASSERT_TRUE(engine->Initialize(DistinctPages(kPages)).ok());
  engine->EnableMetrics(&metrics);
  engine->EnableEventLog(&log);

  const storage::PageId target = 5;
  const storage::PageId elsewhere = 40;
  ASSERT_EQ(engine->plan().OwnerOf(target), 0u);
  ASSERT_EQ(engine->plan().OwnerOf(elsewhere), 1u);
  const Bytes updated(kPageSize, 0xAB);
  disks[0]->FailWrites(true);
  ASSERT_TRUE(engine->Modify(target, updated).ok());
  engine->WaitIdle();
  // Shard 0 answers with the write's error; shard 1 still serves.
  const Result<Bytes> blocked = engine->Retrieve(target);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().message(), "injected write failure");
  const Result<Bytes> served = engine->Retrieve(elsewhere);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(*served, PayloadFor(elsewhere));
  engine->WaitIdle();

  disks[0]->FailWrites(false);
  for (int pass = 0; pass < 2; ++pass) {
    for (storage::PageId id = 0; id < kPages; ++id) {
      const Result<Bytes> data = engine->Retrieve(id);
      ASSERT_TRUE(data.ok()) << "page " << id << ": " << data.status();
      EXPECT_EQ(*data, id == target ? updated : PayloadFor(id))
          << "page " << id;
    }
  }
  engine->WaitIdle();
  uint64_t finish_failures = 0;
  for (const auto& counter : metrics.Snapshot().counters) {
    if (counter.name == "shpir_shard_finish_failures_total") {
      finish_failures = counter.value;
    }
  }
  EXPECT_EQ(finish_failures, 1u);
  int logged = 0;
  for (const obs::EventRecord& event : log.Snapshot()) {
    if (std::strcmp(event.name, "shard_finish_failed") == 0) {
      ++logged;
      EXPECT_EQ(event.shard, 0);
    }
  }
  EXPECT_EQ(logged, 1);
  engine->Drain();
}

TEST(FaultInjectionTest, InitializeFailureSurfaces) {
  core::CApproxPir::Options options;
  options.num_pages = 40;
  options.page_size = kPageSize;
  options.cache_pages = 4;
  options.block_size = 8;
  Result<uint64_t> slots = core::CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());
  MemoryDisk inner(*slots, kSealedSize);
  FaultyDisk disk(&inner);
  disk.FailAfter(0);
  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), 6, &disk);
  ASSERT_TRUE(stack.ok()) << stack.status();
  EXPECT_FALSE((*stack)->engine().Initialize({}).ok());
}

}  // namespace
}  // namespace shpir
