#include "baselines/sqrt_oram.h"

#include <gtest/gtest.h>

#include <memory>

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
    data[i] = static_cast<uint8_t>(id * 29 + i + 11);
  }
  return data;
}

struct Rig {
  std::unique_ptr<storage::MemoryDisk> disk;
  std::unique_ptr<storage::TracingDisk> tracing_disk;
  storage::AccessTrace trace;
  std::unique_ptr<hardware::SecureCoprocessor> cpu;
  std::unique_ptr<SqrtOram> oram;

  static Rig Make(uint64_t n, uint64_t shelter, uint64_t seed) {
    SqrtOram::Options options;
    options.num_pages = n;
    options.page_size = kPageSize;
    options.shelter_slots = shelter;
    Rig rig;
    Result<uint64_t> slots = SqrtOram::DiskSlots(options);
    SHPIR_CHECK(slots.ok());
    rig.disk = std::make_unique<storage::MemoryDisk>(*slots, kSealedSize);
    rig.tracing_disk =
        std::make_unique<storage::TracingDisk>(rig.disk.get(), &rig.trace);
    auto cpu = hardware::SecureCoprocessor::Create(
        hardware::HardwareProfile::Ibm4764(), rig.tracing_disk.get(),
        kPageSize, seed);
    SHPIR_CHECK(cpu.ok());
    rig.cpu = std::move(cpu).value();
    auto oram = SqrtOram::Create(rig.cpu.get(), options, &rig.trace);
    SHPIR_CHECK(oram.ok());
    rig.oram = std::move(oram).value();
    std::vector<Page> pages;
    for (PageId id = 0; id < n; ++id) {
      pages.emplace_back(id, PayloadFor(id));
    }
    SHPIR_CHECK_OK(rig.oram->Initialize(pages));
    return rig;
  }
};

TEST(SqrtOramTest, RetrievesCorrectPages) {
  Rig rig = Rig::Make(50, 8, 1);
  for (PageId id = 0; id < 50; ++id) {
    Result<Bytes> data = rig.oram->Retrieve(id);
    ASSERT_TRUE(data.ok()) << "id " << id << ": " << data.status();
    EXPECT_EQ(*data, PayloadFor(id));
  }
}

TEST(SqrtOramTest, CorrectAcrossManyEpochs) {
  Rig rig = Rig::Make(64, 8, 2);
  crypto::SecureRandom rng(3);
  for (int i = 0; i < 500; ++i) {
    const PageId id = rng.UniformInt(64);
    ASSERT_EQ(*rig.oram->Retrieve(id), PayloadFor(id)) << "query " << i;
  }
  EXPECT_GE(rig.oram->reshuffles(), 500u / 8 - 1);
}

TEST(SqrtOramTest, RepeatedSamePageCorrect) {
  Rig rig = Rig::Make(32, 4, 4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(*rig.oram->Retrieve(9), PayloadFor(9)) << i;
  }
}

TEST(SqrtOramTest, DefaultShelterIsSqrtN) {
  SqrtOram::Options options;
  options.num_pages = 100;
  options.page_size = kPageSize;
  Result<uint64_t> slots = SqrtOram::DiskSlots(options);
  ASSERT_TRUE(slots.ok());
  EXPECT_EQ(*slots, 110u);
}

TEST(SqrtOramTest, PerQueryCostIsShelterPlusOne) {
  Rig rig = Rig::Make(64, 8, 5);
  // Before the first reshuffle, each query reads shelter + 1 slot and
  // writes 1 slot.
  for (int i = 0; i < 7; ++i) {
    const auto before = rig.cpu->cost().Snapshot();
    ASSERT_TRUE(rig.oram->Retrieve(static_cast<PageId>(i)).ok());
    const auto delta = rig.cpu->cost().Snapshot() - before;
    EXPECT_EQ(delta.disk_bytes, (8 + 1 + 1) * kSealedSize) << i;
  }
  // The 8th query triggers the O(n) reshuffle.
  const auto before = rig.cpu->cost().Snapshot();
  ASSERT_TRUE(rig.oram->Retrieve(20).ok());
  const auto delta = rig.cpu->cost().Snapshot() - before;
  EXPECT_GT(delta.disk_bytes, 2u * 64u * kSealedSize);
  EXPECT_EQ(rig.oram->reshuffles(), 1u);
}

TEST(SqrtOramTest, EveryQueryTouchesFreshMainSlot) {
  Rig rig = Rig::Make(40, 10, 6);
  rig.trace.Clear();
  // Query the same page repeatedly: the main-area reads (one per query)
  // must all hit distinct locations within an epoch.
  std::set<storage::Location> main_reads;
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(rig.oram->Retrieve(5).ok());
  }
  for (const auto& e : rig.trace.events()) {
    if (e.op == storage::AccessEvent::Op::kRead && e.location < 40) {
      EXPECT_TRUE(main_reads.insert(e.location).second)
          << "repeated main read at " << e.location;
    }
  }
  EXPECT_EQ(main_reads.size(), 9u);
}

TEST(SqrtOramTest, Validation) {
  SqrtOram::Options options;
  options.num_pages = 1;
  options.page_size = kPageSize;
  EXPECT_FALSE(SqrtOram::DiskSlots(options).ok());
  options.num_pages = 10;
  options.shelter_slots = 10;
  EXPECT_FALSE(SqrtOram::DiskSlots(options).ok());
}

TEST(SqrtOramTest, OutOfRangeAndUninitialized) {
  SqrtOram::Options options;
  options.num_pages = 16;
  options.page_size = kPageSize;
  options.shelter_slots = 4;
  Result<uint64_t> slots = SqrtOram::DiskSlots(options);
  ASSERT_TRUE(slots.ok());
  storage::MemoryDisk disk(*slots, kSealedSize);
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::Ibm4764(), &disk, kPageSize, 7);
  ASSERT_TRUE(cpu.ok());
  auto oram = SqrtOram::Create(cpu->get(), options);
  ASSERT_TRUE(oram.ok());
  EXPECT_EQ((*oram)->Retrieve(0).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*oram)->Initialize({}).ok());
  EXPECT_EQ((*oram)->Retrieve(16).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace shpir::baselines
