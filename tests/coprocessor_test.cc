#include "hardware/coprocessor.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "obs/metrics.h"
#include "storage/disk.h"

namespace shpir::hardware {
namespace {

using storage::MemoryDisk;
using storage::Page;

constexpr size_t kPageSize = 32;
// nonce 12 + (8 + 32) + tag 32.
constexpr size_t kSealedSize = 84;

TEST(HardwareProfileTest, Ibm4764MatchesTable2) {
  const HardwareProfile p = HardwareProfile::Ibm4764();
  EXPECT_DOUBLE_EQ(p.seek_time_s, 0.005);
  EXPECT_DOUBLE_EQ(p.disk_rate, 100e6);
  EXPECT_DOUBLE_EQ(p.link_rate, 80e6);
  EXPECT_DOUBLE_EQ(p.crypto_rate, 10e6);
  EXPECT_EQ(p.secure_memory_bytes, 64u * kMB);
  EXPECT_DOUBLE_EQ(p.network_rtt_s, 0.0);
}

TEST(HardwareProfileTest, ArrayScalesOnlyMemory) {
  const HardwareProfile p = HardwareProfile::Ibm4764Array(10);
  EXPECT_EQ(p.secure_memory_bytes, 640u * kMB);
  EXPECT_DOUBLE_EQ(p.crypto_rate, 10e6);
}

TEST(HardwareProfileTest, ModernTeeIsStrictlyFaster) {
  const HardwareProfile old_hw = HardwareProfile::Ibm4764();
  const HardwareProfile new_hw = HardwareProfile::ModernTee();
  EXPECT_LT(new_hw.seek_time_s, old_hw.seek_time_s);
  EXPECT_GT(new_hw.disk_rate, old_hw.disk_rate);
  EXPECT_GT(new_hw.link_rate, old_hw.link_rate);
  EXPECT_GT(new_hw.crypto_rate, old_hw.crypto_rate);
  EXPECT_GT(new_hw.secure_memory_bytes, old_hw.secure_memory_bytes);
}

TEST(HardwareProfileTest, TwoPartyOwnerHasNetworkNoLink) {
  const HardwareProfile p = HardwareProfile::TwoPartyOwner(6 * kGB);
  EXPECT_EQ(p.secure_memory_bytes, 6u * kGB);
  EXPECT_DOUBLE_EQ(p.network_rtt_s, 0.050);
  EXPECT_DOUBLE_EQ(p.link_rate, 0.0);
  EXPECT_GT(p.network_rate, 0.0);
}

TEST(CostAccountantTest, SecondsFollowsEq8Structure) {
  // 4 seeks + known byte volumes must give ts*4 + bytes/rates.
  CostAccountant cost;
  cost.AddSeeks(4);
  cost.AddDiskBytes(1000000);
  cost.AddLinkBytes(1000000);
  cost.AddCryptoBytes(1000000);
  const HardwareProfile p = HardwareProfile::Ibm4764();
  const double expected =
      4 * 0.005 + 1e6 / 100e6 + 1e6 / 80e6 + 1e6 / 10e6;
  EXPECT_DOUBLE_EQ(cost.Seconds(p), expected);
}

TEST(CostAccountantTest, ZeroRatesContributeNoTime) {
  CostAccountant cost;
  cost.AddLinkBytes(12345);
  HardwareProfile p = HardwareProfile::Ibm4764();
  p.link_rate = 0.0;
  EXPECT_DOUBLE_EQ(cost.Seconds(p), 0.0);
}

TEST(CostAccountantTest, NetworkCosts) {
  CostAccountant cost;
  cost.AddNetworkRoundTrips(2);
  cost.AddNetworkBytes(1000000);
  HardwareProfile p;
  p.network_rtt_s = 0.05;
  p.network_rate = 2e6;
  p.seek_time_s = 0;
  EXPECT_DOUBLE_EQ(cost.Seconds(p), 2 * 0.05 + 0.5);
}

TEST(CostAccountantTest, SnapshotDeltas) {
  CostAccountant cost;
  cost.AddSeeks(1);
  const CostAccountant::Counters before = cost.Snapshot();
  cost.AddSeeks(3);
  cost.AddDiskBytes(100);
  const CostAccountant::Counters delta = cost.Snapshot() - before;
  EXPECT_EQ(delta.seeks, 3u);
  EXPECT_EQ(delta.disk_bytes, 100u);
}

class CoprocessorTest : public ::testing::Test {
 protected:
  CoprocessorTest() : disk_(16, kSealedSize) {
    Result<std::unique_ptr<SecureCoprocessor>> cpu = SecureCoprocessor::Create(
        HardwareProfile::Ibm4764(), &disk_, kPageSize, 7);
    SHPIR_CHECK(cpu.ok());
    cpu_ = std::move(cpu).value();
  }

  MemoryDisk disk_;
  std::unique_ptr<SecureCoprocessor> cpu_;
};

TEST_F(CoprocessorTest, SealOpenRoundTripThroughDisk) {
  Page page(3, Bytes(kPageSize, 0x44));
  Result<Bytes> sealed = cpu_->SealPage(page);
  ASSERT_TRUE(sealed.ok());
  ASSERT_TRUE(cpu_->WriteSlot(5, *sealed).ok());
  Result<Bytes> raw = cpu_->ReadSlot(5);
  ASSERT_TRUE(raw.ok());
  Result<Page> back = cpu_->OpenPage(*raw);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, page);
}

TEST_F(CoprocessorTest, RunAccountsOneSeek) {
  std::vector<Bytes> slots(4, Bytes(kSealedSize, 0));
  ASSERT_TRUE(cpu_->WriteRun(0, slots).ok());
  EXPECT_EQ(cpu_->cost().counters().seeks, 1u);
  EXPECT_EQ(cpu_->cost().counters().disk_bytes, 4u * kSealedSize);
  EXPECT_EQ(cpu_->cost().counters().link_bytes, 4u * kSealedSize);
  std::vector<Bytes> out;
  ASSERT_TRUE(cpu_->ReadRun(0, 4, out).ok());
  EXPECT_EQ(cpu_->cost().counters().seeks, 2u);
}

TEST_F(CoprocessorTest, CryptoAccountsPageBytes) {
  Page page(1, Bytes(kPageSize, 0));
  ASSERT_TRUE(cpu_->SealPage(page).ok());
  EXPECT_EQ(cpu_->cost().counters().crypto_bytes, kPageSize);
}

TEST_F(CoprocessorTest, SecureMemoryBudget) {
  EXPECT_EQ(cpu_->secure_memory_used(), 0u);
  ASSERT_TRUE(cpu_->ReserveSecureMemory(1000, "test").ok());
  EXPECT_EQ(cpu_->secure_memory_used(), 1000u);
  const Status too_big =
      cpu_->ReserveSecureMemory(cpu_->secure_memory_capacity(), "big");
  EXPECT_EQ(too_big.code(), StatusCode::kResourceExhausted);
  cpu_->ReleaseSecureMemory(1000);
  EXPECT_EQ(cpu_->secure_memory_used(), 0u);
}

TEST_F(CoprocessorTest, DeterministicSeedsGiveSameKeys) {
  MemoryDisk disk2(16, kSealedSize);
  Result<std::unique_ptr<SecureCoprocessor>> cpu2 = SecureCoprocessor::Create(
      HardwareProfile::Ibm4764(), &disk2, kPageSize, 7);
  ASSERT_TRUE(cpu2.ok());
  // Same seed => same keys and same RNG stream => identical sealed bytes.
  Page page(9, Bytes(kPageSize, 0x12));
  Result<Bytes> a = cpu_->SealPage(page);
  Result<Bytes> b = (*cpu2)->SealPage(page);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(CoprocessorCreateTest, RejectsMismatchedSlotSize) {
  MemoryDisk disk(4, 100);  // Not the sealed size for 32-byte pages.
  Result<std::unique_ptr<SecureCoprocessor>> cpu = SecureCoprocessor::Create(
      HardwareProfile::Ibm4764(), &disk, kPageSize, 1);
  EXPECT_FALSE(cpu.ok());
  EXPECT_EQ(cpu.status().code(), StatusCode::kInvalidArgument);
}

TEST(CoprocessorCreateTest, RejectsNullDisk) {
  Result<std::unique_ptr<SecureCoprocessor>> cpu = SecureCoprocessor::Create(
      HardwareProfile::Ibm4764(), nullptr, kPageSize, 1);
  EXPECT_FALSE(cpu.ok());
}

TEST_F(CoprocessorTest, ElapsedSecondsReflectsActivity) {
  EXPECT_DOUBLE_EQ(cpu_->ElapsedSeconds(), 0.0);
  std::vector<Bytes> out;
  ASSERT_TRUE(cpu_->ReadRun(0, 2, out).ok());
  EXPECT_GT(cpu_->ElapsedSeconds(), 0.005);  // At least the seek.
}

TEST_F(CoprocessorTest, PlansAreAccountedExactlyAsRunPlusSlot) {
  obs::MetricsRegistry registry;
  cpu_->AttachMetrics(&registry);
  const storage::IoPlan plan{4, 3, 12};
  const auto seeks = [&] {
    return registry.FindOrCreateCounter("shpir_hw_seeks_total")->Value();
  };

  CostAccountant::Counters before = cpu_->cost().Snapshot();
  std::vector<Bytes> separate;
  ASSERT_TRUE(cpu_->ReadRun(plan.block_start, plan.k, separate).ok());
  Result<Bytes> extra = cpu_->ReadSlot(plan.extra);
  ASSERT_TRUE(extra.ok());
  separate.push_back(*extra);
  const CostAccountant::Counters two_reads = cpu_->cost().Snapshot() - before;
  before = cpu_->cost().Snapshot();
  std::vector<Bytes> planned;
  ASSERT_TRUE(cpu_->ReadPlan(plan, planned).ok());
  const CostAccountant::Counters read_plan = cpu_->cost().Snapshot() - before;
  EXPECT_EQ(planned, separate);
  EXPECT_EQ(read_plan.seeks, 2u);
  EXPECT_EQ(read_plan.seeks, two_reads.seeks);
  EXPECT_EQ(read_plan.disk_bytes, two_reads.disk_bytes);
  EXPECT_EQ(read_plan.link_bytes, two_reads.link_bytes);
  EXPECT_EQ(seeks(), 4u);

  const std::vector<Bytes> run(plan.k, Bytes(kSealedSize, 0x21));
  before = cpu_->cost().Snapshot();
  ASSERT_TRUE(cpu_->WriteRun(plan.block_start, run).ok());
  ASSERT_TRUE(cpu_->WriteSlot(plan.extra, run[0]).ok());
  const CostAccountant::Counters two_writes = cpu_->cost().Snapshot() - before;
  before = cpu_->cost().Snapshot();
  ASSERT_TRUE(cpu_->WritePlan(plan, run, run[0]).ok());
  const CostAccountant::Counters write_plan = cpu_->cost().Snapshot() - before;
  EXPECT_EQ(write_plan.seeks, 2u);
  EXPECT_EQ(write_plan.seeks, two_writes.seeks);
  EXPECT_EQ(write_plan.disk_bytes, two_writes.disk_bytes);
  EXPECT_EQ(write_plan.link_bytes, two_writes.link_bytes);
  EXPECT_EQ(seeks(), 8u);
  EXPECT_EQ(registry.FindOrCreateCounter("shpir_hw_disk_bytes_total")->Value(),
            4 * (plan.k + 1) * kSealedSize);
}

TEST_F(CoprocessorTest, BatchesAreAccountedExactlyAsSinglePages) {
  // A second device from the same seed takes the batches, so both draw
  // the same nonces and their accounts can be compared whole.
  MemoryDisk batch_disk(16, kSealedSize);
  Result<std::unique_ptr<SecureCoprocessor>> batch_cpu =
      SecureCoprocessor::Create(HardwareProfile::Ibm4764(), &batch_disk,
                                kPageSize, 7);
  ASSERT_TRUE(batch_cpu.ok());
  obs::MetricsRegistry single_registry;
  obs::MetricsRegistry batch_registry;
  cpu_->AttachMetrics(&single_registry);
  (*batch_cpu)->AttachMetrics(&batch_registry);
  std::vector<Page> pages;
  for (uint64_t i = 0; i < 5; ++i) {
    pages.emplace_back(i, Bytes(kPageSize, static_cast<uint8_t>(0x10 + i)));
  }

  const CostAccountant::Counters single_before = cpu_->cost().Snapshot();
  std::vector<Bytes> single_sealed;
  for (const Page& page : pages) {
    Result<Bytes> sealed = cpu_->SealPage(page);
    ASSERT_TRUE(sealed.ok());
    single_sealed.push_back(*sealed);
  }
  for (const Bytes& slot : single_sealed) {
    ASSERT_TRUE(cpu_->OpenPage(slot).ok());
  }
  const CostAccountant::Counters single =
      cpu_->cost().Snapshot() - single_before;

  const CostAccountant::Counters batch_before =
      (*batch_cpu)->cost().Snapshot();
  std::vector<Bytes> batch_sealed(pages.size());
  std::vector<Page> batch_opened(pages.size());
  ASSERT_TRUE((*batch_cpu)->SealPages(pages, batch_sealed).ok());
  ASSERT_TRUE((*batch_cpu)->OpenPages(batch_sealed, batch_opened).ok());
  const CostAccountant::Counters batch =
      (*batch_cpu)->cost().Snapshot() - batch_before;
  EXPECT_EQ(batch_sealed, single_sealed);
  EXPECT_EQ(batch_opened, pages);

  EXPECT_EQ(batch.crypto_bytes, 2 * pages.size() * kPageSize);
  EXPECT_EQ(batch.crypto_bytes, single.crypto_bytes);
  EXPECT_EQ(batch.seeks, single.seeks);
  EXPECT_EQ(batch.disk_bytes, single.disk_bytes);
  EXPECT_EQ(batch.link_bytes, single.link_bytes);
  EXPECT_DOUBLE_EQ((*batch_cpu)->ElapsedSeconds(), cpu_->ElapsedSeconds());
  for (const char* name :
       {"shpir_hw_pages_sealed_total", "shpir_hw_pages_opened_total",
        "shpir_hw_crypto_bytes_total"}) {
    EXPECT_EQ(batch_registry.FindOrCreateCounter(name)->Value(),
              single_registry.FindOrCreateCounter(name)->Value())
        << name;
  }
  EXPECT_EQ(
      batch_registry.FindOrCreateCounter("shpir_hw_pages_sealed_total")
          ->Value(),
      pages.size());
  EXPECT_DOUBLE_EQ(
      batch_registry.FindOrCreateGauge("shpir_hw_simulated_seconds")->Value(),
      single_registry.FindOrCreateGauge("shpir_hw_simulated_seconds")
          ->Value());
}

TEST_F(CoprocessorTest, AttachMetricsMirrorsCostAccounting) {
  obs::MetricsRegistry registry;
  cpu_->AttachMetrics(&registry);

  std::vector<Bytes> out;
  ASSERT_TRUE(cpu_->ReadRun(0, 2, out).ok());      // 1 seek, 2 slots.
  ASSERT_TRUE(cpu_->WriteSlot(5, out[0]).ok());    // 1 seek, 1 slot.
  Page page(1, Bytes(kPageSize, 0x33));
  Result<Bytes> sealed = cpu_->SealPage(page);
  ASSERT_TRUE(sealed.ok());
  ASSERT_TRUE(cpu_->OpenPage(*sealed).ok());
  ASSERT_TRUE(cpu_->ReserveSecureMemory(4096, "test structure").ok());

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const auto& c : snapshot.counters) {
      if (c.name == name) {
        return c.value;
      }
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  auto gauge = [&](const std::string& name) -> double {
    for (const auto& g : snapshot.gauges) {
      if (g.name == name) {
        return g.value;
      }
    }
    ADD_FAILURE() << "missing gauge " << name;
    return -1;
  };
  EXPECT_EQ(counter("shpir_hw_seeks_total"), 2u);
  EXPECT_EQ(counter("shpir_hw_disk_bytes_total"), 3 * kSealedSize);
  EXPECT_EQ(counter("shpir_hw_link_bytes_total"), 3 * kSealedSize);
  EXPECT_EQ(counter("shpir_hw_crypto_bytes_total"), 2 * kPageSize);
  EXPECT_EQ(counter("shpir_hw_pages_sealed_total"), 1u);
  EXPECT_EQ(counter("shpir_hw_pages_opened_total"), 1u);
  EXPECT_DOUBLE_EQ(gauge("shpir_hw_simulated_seconds"),
                   cpu_->ElapsedSeconds());
  EXPECT_DOUBLE_EQ(gauge("shpir_hw_secure_memory_used_bytes"), 4096.0);
  EXPECT_DOUBLE_EQ(
      gauge("shpir_hw_secure_memory_capacity_bytes"),
      static_cast<double>(cpu_->secure_memory_capacity()));

  // Detach: further activity leaves the registry untouched.
  cpu_->AttachMetrics(nullptr);
  ASSERT_TRUE(cpu_->ReadRun(0, 2, out).ok());
  EXPECT_EQ(registry.FindOrCreateCounter("shpir_hw_seeks_total")->Value(),
            2u);
}

}  // namespace
}  // namespace shpir::hardware
