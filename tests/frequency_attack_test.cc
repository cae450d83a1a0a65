#include "analysis/frequency_attack.h"

#include <gtest/gtest.h>

#include <memory>

#include "baselines/encrypted_store.h"
#include "common/check.h"
#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "storage/disk.h"
#include "test_stack.h"

namespace shpir::analysis {
namespace {

constexpr size_t kPageSize = 16;
constexpr size_t kSealedSize = storage::PageCipher::SealedSize(kPageSize);
constexpr uint64_t kN = 64;

/// Zipf-ish workload generator with the adversary's matching prior.
struct Workload {
  std::vector<double> popularity;
  crypto::SecureRandom rng;

  explicit Workload(uint64_t seed) : rng(seed) {
    popularity.resize(kN);
    double total = 0;
    for (uint64_t i = 0; i < kN; ++i) {
      popularity[i] = 1.0 / static_cast<double>(i + 1);
      total += popularity[i];
    }
    for (double& p : popularity) {
      p /= total;
    }
  }

  storage::PageId Next() {
    double x = rng.UniformDouble();
    for (uint64_t i = 0; i < kN; ++i) {
      x -= popularity[i];
      if (x <= 0) {
        return i;
      }
    }
    return kN - 1;
  }
};

TEST(FrequencyAttackTest, BreaksStaticEncryptedStore) {
  storage::MemoryDisk disk(kN, kSealedSize);
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::Ibm4764(), &disk, kPageSize, 1);
  ASSERT_TRUE(cpu.ok());
  baselines::StaticEncryptedStore::Options options{kN, kPageSize};
  auto store = baselines::StaticEncryptedStore::Create(cpu->get(), options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Initialize({}).ok());

  Workload workload(2);
  std::vector<storage::Location> observed;
  std::vector<storage::PageId> truth;
  for (int i = 0; i < 20000; ++i) {
    const storage::PageId id = workload.Next();
    ASSERT_TRUE((*store)->Retrieve(id).ok());
    observed.push_back((*store)->LocationOf(id));
    truth.push_back(id);
  }
  const FrequencyAttackReport report =
      RunFrequencyAttack(observed, truth, workload.popularity);
  // The paper's claim: encryption alone does not hide the access
  // pattern — the adversary identifies the bulk of the requests.
  EXPECT_GT(report.accuracy(), 0.5);
}

TEST(FrequencyAttackTest, CApproxEngineResists) {
  core::CApproxPir::Options options;
  options.num_pages = kN;
  options.page_size = kPageSize;
  options.cache_pages = 8;
  options.block_size = 8;
  storage::AccessTrace trace;
  auto stack = test::LoadedStack(options, 3, {}, &trace);
  core::CApproxPir& engine = stack->engine();

  Workload workload(4);
  std::vector<storage::PageId> truth;
  const uint64_t k = engine.block_size();
  size_t cursor = trace.events().size();
  std::vector<storage::Location> observed;
  for (int i = 0; i < 20000; ++i) {
    const storage::PageId id = workload.Next();
    ASSERT_TRUE(engine.Retrieve(id).ok());
    truth.push_back(id);
    // The data-dependent access is the (k+1)-th read of the request.
    uint64_t reads = 0;
    for (; cursor < trace.events().size(); ++cursor) {
      const auto& event = trace.events()[cursor];
      if (event.op == storage::AccessEvent::Op::kRead) {
        ++reads;
        if (reads == k + 1) {
          observed.push_back(event.location);
        }
      }
    }
  }
  ASSERT_EQ(observed.size(), truth.size());
  const FrequencyAttackReport report =
      RunFrequencyAttack(observed, truth, workload.popularity);
  // Pages keep relocating, so the rank alignment collapses: accuracy
  // stays close to the single-page chance level.
  EXPECT_LT(report.accuracy(), 0.10);
}

TEST(FrequencyAttackTest, DegenerateInputs) {
  EXPECT_EQ(RunFrequencyAttack({}, {}, {}).requests, 0u);
  EXPECT_DOUBLE_EQ(RunFrequencyAttack({}, {}, {}).accuracy(), 0.0);
  // Mismatched lengths are rejected (empty report).
  EXPECT_EQ(RunFrequencyAttack({1}, {}, {0.5}).requests, 0u);
}

TEST(FrequencyAttackTest, PerfectWhenOneHotPage) {
  // One page gets all requests; its location dominates the histogram.
  std::vector<storage::Location> observed(1000, 7);
  std::vector<storage::PageId> truth(1000, 3);
  std::vector<double> popularity(10, 0.01);
  popularity[3] = 0.91;
  const FrequencyAttackReport report =
      RunFrequencyAttack(observed, truth, popularity);
  EXPECT_DOUBLE_EQ(report.accuracy(), 1.0);
}

}  // namespace
}  // namespace shpir::analysis
