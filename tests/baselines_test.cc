#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "baselines/pyramid_oram.h"
#include "baselines/trivial_pir.h"
#include "baselines/wang_pir.h"
#include "common/check.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "storage/access_trace.h"
#include "storage/disk.h"

namespace shpir::baselines {
namespace {

using storage::Page;
using storage::PageId;

constexpr size_t kPageSize = 24;
constexpr size_t kSealedSize = storage::PageCipher::SealedSize(kPageSize);

Bytes PayloadFor(PageId id) {
  Bytes data(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    data[i] = static_cast<uint8_t>(id * 13 + i * 3 + 5);
  }
  return data;
}

std::vector<Page> MakePages(uint64_t n) {
  std::vector<Page> pages;
  for (PageId id = 0; id < n; ++id) {
    pages.emplace_back(id, PayloadFor(id));
  }
  return pages;
}

struct Rig {
  std::unique_ptr<storage::MemoryDisk> disk;
  std::unique_ptr<storage::TracingDisk> tracing_disk;
  storage::AccessTrace trace;
  std::unique_ptr<hardware::SecureCoprocessor> cpu;

  static Rig Make(uint64_t slots, uint64_t seed) {
    Rig rig;
    rig.disk = std::make_unique<storage::MemoryDisk>(slots, kSealedSize);
    rig.tracing_disk =
        std::make_unique<storage::TracingDisk>(rig.disk.get(), &rig.trace);
    Result<std::unique_ptr<hardware::SecureCoprocessor>> cpu =
        hardware::SecureCoprocessor::Create(
            hardware::HardwareProfile::Ibm4764(), rig.tracing_disk.get(),
            kPageSize, seed);
    SHPIR_CHECK(cpu.ok());
    rig.cpu = std::move(cpu).value();
    return rig;
  }
};

// ---------------------------------------------------------------- Trivial

TEST(TrivialPirTest, RetrievesCorrectPages) {
  Rig rig = Rig::Make(20, 1);
  TrivialPir::Options options{.num_pages = 20, .page_size = kPageSize};
  Result<std::unique_ptr<TrivialPir>> pir =
      TrivialPir::Create(rig.cpu.get(), options, &rig.trace);
  ASSERT_TRUE(pir.ok());
  ASSERT_TRUE((*pir)->Initialize(MakePages(20)).ok());
  for (PageId id = 0; id < 20; ++id) {
    EXPECT_EQ(*(*pir)->Retrieve(id), PayloadFor(id));
  }
}

TEST(TrivialPirTest, EveryQueryScansWholeDatabase) {
  Rig rig = Rig::Make(16, 2);
  TrivialPir::Options options{.num_pages = 16, .page_size = kPageSize};
  Result<std::unique_ptr<TrivialPir>> pir =
      TrivialPir::Create(rig.cpu.get(), options, &rig.trace);
  ASSERT_TRUE(pir.ok());
  ASSERT_TRUE((*pir)->Initialize(MakePages(16)).ok());
  rig.trace.Clear();
  ASSERT_TRUE((*pir)->Retrieve(3).ok());
  ASSERT_TRUE((*pir)->Retrieve(9).ok());
  // Identical full-scan trace per query regardless of the target.
  const auto& events = rig.trace.events();
  ASSERT_EQ(events.size(), 32u);
  for (uint64_t q = 0; q < 2; ++q) {
    for (uint64_t i = 0; i < 16; ++i) {
      EXPECT_EQ(events[q * 16 + i].location, i);
      EXPECT_EQ(events[q * 16 + i].op, storage::AccessEvent::Op::kRead);
      EXPECT_EQ(events[q * 16 + i].request_index, q);
    }
  }
}

TEST(TrivialPirTest, CostIsLinearInN) {
  Rig rig = Rig::Make(32, 3);
  TrivialPir::Options options{.num_pages = 32, .page_size = kPageSize};
  Result<std::unique_ptr<TrivialPir>> pir =
      TrivialPir::Create(rig.cpu.get(), options);
  ASSERT_TRUE(pir.ok());
  ASSERT_TRUE((*pir)->Initialize(MakePages(32)).ok());
  const auto before = rig.cpu->cost().Snapshot();
  ASSERT_TRUE((*pir)->Retrieve(0).ok());
  const auto delta = rig.cpu->cost().Snapshot() - before;
  EXPECT_EQ(delta.disk_bytes, 32u * kSealedSize);
  EXPECT_EQ(delta.crypto_bytes, 32u * kPageSize);
  EXPECT_EQ(delta.seeks, 1u);
}

TEST(TrivialPirTest, Validation) {
  Rig rig = Rig::Make(8, 4);
  TrivialPir::Options options{.num_pages = 9, .page_size = kPageSize};
  EXPECT_FALSE(TrivialPir::Create(rig.cpu.get(), options).ok());
  options.num_pages = 8;
  Result<std::unique_ptr<TrivialPir>> pir =
      TrivialPir::Create(rig.cpu.get(), options);
  ASSERT_TRUE(pir.ok());
  EXPECT_FALSE((*pir)->Retrieve(0).ok());  // Not initialized.
  ASSERT_TRUE((*pir)->Initialize({}).ok());
  EXPECT_FALSE((*pir)->Retrieve(8).ok());  // Out of range.
}

// ------------------------------------------------------------------- Wang

TEST(WangPirTest, RetrievesCorrectPagesAcrossReshuffles) {
  Rig rig = Rig::Make(30, 5);
  WangPir::Options options{
      .num_pages = 30, .page_size = kPageSize, .cache_pages = 5};
  Result<std::unique_ptr<WangPir>> pir =
      WangPir::Create(rig.cpu.get(), options, &rig.trace);
  ASSERT_TRUE(pir.ok());
  ASSERT_TRUE((*pir)->Initialize(MakePages(30)).ok());
  crypto::SecureRandom rng(6);
  for (int i = 0; i < 200; ++i) {
    const PageId id = rng.UniformInt(30);
    ASSERT_EQ(*(*pir)->Retrieve(id), PayloadFor(id)) << "query " << i;
  }
  EXPECT_GE((*pir)->reshuffles(), 200u / 5 - 1);
}

TEST(WangPirTest, ReshuffleEveryMQueries) {
  Rig rig = Rig::Make(20, 7);
  WangPir::Options options{
      .num_pages = 20, .page_size = kPageSize, .cache_pages = 4};
  Result<std::unique_ptr<WangPir>> pir =
      WangPir::Create(rig.cpu.get(), options);
  ASSERT_TRUE(pir.ok());
  ASSERT_TRUE((*pir)->Initialize(MakePages(20)).ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*pir)->Retrieve(0).ok());
  }
  EXPECT_EQ((*pir)->reshuffles(), 3u);
  EXPECT_EQ((*pir)->queries_since_reshuffle(), 0u);
}

TEST(WangPirTest, PerQueryCostIsOnePageUntilReshuffle) {
  Rig rig = Rig::Make(40, 8);
  WangPir::Options options{
      .num_pages = 40, .page_size = kPageSize, .cache_pages = 10};
  Result<std::unique_ptr<WangPir>> pir =
      WangPir::Create(rig.cpu.get(), options);
  ASSERT_TRUE(pir.ok());
  ASSERT_TRUE((*pir)->Initialize(MakePages(40)).ok());
  // First m-1 queries are cheap; the m-th triggers an O(n) reshuffle.
  for (int i = 0; i < 9; ++i) {
    const auto before = rig.cpu->cost().Snapshot();
    ASSERT_TRUE((*pir)->Retrieve(static_cast<PageId>(i)).ok());
    const auto delta = rig.cpu->cost().Snapshot() - before;
    EXPECT_EQ(delta.disk_bytes, kSealedSize) << i;
    EXPECT_EQ(delta.seeks, 1u) << i;
  }
  const auto before = rig.cpu->cost().Snapshot();
  ASSERT_TRUE((*pir)->Retrieve(20).ok());
  const auto delta = rig.cpu->cost().Snapshot() - before;
  // Query + full read pass + full write pass.
  EXPECT_GT(delta.disk_bytes, 2u * 40u * kSealedSize);
}

TEST(WangPirTest, EachEpochTouchesDistinctSlots) {
  Rig rig = Rig::Make(25, 9);
  WangPir::Options options{
      .num_pages = 25, .page_size = kPageSize, .cache_pages = 10};
  Result<std::unique_ptr<WangPir>> pir =
      WangPir::Create(rig.cpu.get(), options, &rig.trace);
  ASSERT_TRUE(pir.ok());
  ASSERT_TRUE((*pir)->Initialize(MakePages(25)).ok());
  rig.trace.Clear();
  // Repeatedly request the same page: each query must still read a
  // distinct location (random cover reads on hits).
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE((*pir)->Retrieve(7).ok());
  }
  std::set<storage::Location> locations;
  for (const auto& e : rig.trace.events()) {
    EXPECT_EQ(e.op, storage::AccessEvent::Op::kRead);
    EXPECT_TRUE(locations.insert(e.location).second)
        << "repeated location " << e.location;
  }
  EXPECT_EQ(locations.size(), 9u);
}

TEST(WangPirTest, Validation) {
  Rig rig = Rig::Make(10, 10);
  WangPir::Options options{
      .num_pages = 10, .page_size = kPageSize, .cache_pages = 10};
  EXPECT_FALSE(WangPir::Create(rig.cpu.get(), options).ok());  // m == n.
  options.cache_pages = 0;
  EXPECT_FALSE(WangPir::Create(rig.cpu.get(), options).ok());
}

// ----------------------------------------------------------------- ORAM

struct OramRig {
  Rig rig;
  std::unique_ptr<PyramidOram> oram;

  static OramRig Make(uint64_t n, uint64_t stash, uint64_t seed) {
    PyramidOram::Options options;
    options.num_pages = n;
    options.page_size = kPageSize;
    options.stash_pages = stash;
    Result<uint64_t> slots = PyramidOram::DiskSlots(options);
    SHPIR_CHECK(slots.ok());
    OramRig out{Rig::Make(*slots, seed), nullptr};
    Result<std::unique_ptr<PyramidOram>> oram =
        PyramidOram::Create(out.rig.cpu.get(), options, &out.rig.trace);
    SHPIR_CHECK(oram.ok());
    out.oram = std::move(oram).value();
    SHPIR_CHECK_OK(out.oram->Initialize(MakePages(n)));
    return out;
  }
};

TEST(PyramidOramTest, RetrievesCorrectPages) {
  OramRig rig = OramRig::Make(32, 4, 11);
  for (PageId id = 0; id < 32; ++id) {
    Result<Bytes> data = rig.oram->Retrieve(id);
    ASSERT_TRUE(data.ok()) << "id " << id << ": " << data.status();
    EXPECT_EQ(*data, PayloadFor(id));
  }
}

TEST(PyramidOramTest, CorrectUnderHeavyChurn) {
  OramRig rig = OramRig::Make(64, 4, 12);
  crypto::SecureRandom rng(13);
  for (int i = 0; i < 1000; ++i) {
    const PageId id = rng.UniformInt(64);
    Result<Bytes> data = rig.oram->Retrieve(id);
    ASSERT_TRUE(data.ok()) << "query " << i << ": " << data.status();
    ASSERT_EQ(*data, PayloadFor(id)) << "query " << i;
  }
  EXPECT_GT(rig.oram->rebuilds(), 100u);
}

TEST(PyramidOramTest, RepeatedSamePageStaysCorrect) {
  OramRig rig = OramRig::Make(32, 4, 14);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(*rig.oram->Retrieve(5), PayloadFor(5)) << i;
  }
}

TEST(PyramidOramTest, LatencySpikesAtRebuilds) {
  OramRig rig = OramRig::Make(128, 4, 15);
  crypto::SecureRandom rng(16);
  uint64_t max_bytes = 0, min_bytes = UINT64_MAX;
  for (int i = 0; i < 64; ++i) {
    const auto before = rig.rig.cpu->cost().Snapshot();
    ASSERT_TRUE(rig.oram->Retrieve(rng.UniformInt(128)).ok());
    const auto delta = rig.rig.cpu->cost().Snapshot() - before;
    max_bytes = std::max(max_bytes, delta.disk_bytes);
    min_bytes = std::min(min_bytes, delta.disk_bytes);
  }
  // Rebuild queries must be far more expensive than plain lookups —
  // the amortized-vs-worst-case gap the paper targets.
  EXPECT_GT(max_bytes, 10 * min_bytes);
}

TEST(PyramidOramTest, ProbeShapeIndependentOfTarget) {
  // Two fresh ORAMs, different query targets: the number of slots read
  // per query before any rebuild must match.
  OramRig a = OramRig::Make(32, 8, 17);
  OramRig b = OramRig::Make(32, 8, 18);
  a.rig.trace.Clear();
  b.rig.trace.Clear();
  ASSERT_TRUE(a.oram->Retrieve(1).ok());
  ASSERT_TRUE(b.oram->Retrieve(30).ok());
  EXPECT_EQ(a.rig.trace.events().size(), b.rig.trace.events().size());
}

TEST(PyramidOramTest, Validation) {
  PyramidOram::Options options;
  options.num_pages = 1;
  options.page_size = kPageSize;
  EXPECT_FALSE(PyramidOram::DiskSlots(options).ok());
  options.num_pages = 16;
  options.bucket_slots = 1;
  EXPECT_FALSE(PyramidOram::DiskSlots(options).ok());
  options.bucket_slots = 8;
  options.stash_pages = 0;
  EXPECT_FALSE(PyramidOram::DiskSlots(options).ok());
}

TEST(PyramidOramTest, OutOfRangeAndUninitialized) {
  PyramidOram::Options options;
  options.num_pages = 16;
  options.page_size = kPageSize;
  Result<uint64_t> slots = PyramidOram::DiskSlots(options);
  ASSERT_TRUE(slots.ok());
  Rig rig = Rig::Make(*slots, 19);
  Result<std::unique_ptr<PyramidOram>> oram =
      PyramidOram::Create(rig.cpu.get(), options);
  ASSERT_TRUE(oram.ok());
  EXPECT_EQ((*oram)->Retrieve(0).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*oram)->Initialize(MakePages(16)).ok());
  EXPECT_EQ((*oram)->Retrieve(16).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace shpir::baselines
