#include "model/cost_model.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "test_stack.h"

namespace shpir::model {
namespace {

using hardware::HardwareProfile;
using hardware::kKB;
using hardware::kMB;

/// Paper §5 spot values: (n, m, B, quoted seconds). All with c = 2.
struct PaperSpot {
  std::string name;
  uint64_t n;
  uint64_t m;
  uint64_t page_size;
  double quoted_seconds;
};

// Keeps the discovered ctest name stable across builds (see sha256_test.cc).
void PrintTo(const PaperSpot& s, std::ostream* os) { *os << s.name; }

class PaperSpotTest : public ::testing::TestWithParam<PaperSpot> {};

TEST_P(PaperSpotTest, ModelMatchesQuotedValue) {
  const PaperSpot& spot = GetParam();
  Result<CostModel::Evaluation> eval = CostModel::Evaluate(
      spot.n, spot.m, spot.page_size, 2.0, HardwareProfile::Ibm4764());
  ASSERT_TRUE(eval.ok()) << eval.status();
  EXPECT_NEAR(eval->query_seconds, spot.quoted_seconds,
              spot.quoted_seconds * 0.05)
      << "k=" << eval->k;
}

INSTANTIATE_TEST_SUITE_P(
    Section5, PaperSpotTest,
    ::testing::Values(
        // "a single secure coprocessor can retrieve 1KB pages in 27ms".
        PaperSpot{"Gb1Page1K", 1000000, 50000, kKB, 0.027},
        // "... and 10KB pages in 94ms".
        PaperSpot{"Gb1Page10K", 100000, 5000, 10 * kKB, 0.094},
        // "with 1 coprocessor and a 10GB database ... 1KB pages in 197ms".
        PaperSpot{"Gb10Page1K1Unit", 10000000, 20000, kKB, 0.197},
        // "... and 10KB pages in 731ms".
        PaperSpot{"Gb10Page10K1Unit", 1000000, 5000, 10 * kKB, 0.731},
        // "2 coprocessors can reduce those times to 65ms".
        PaperSpot{"Gb10Page1K2Units", 10000000, 80000, kKB, 0.065},
        // "... and 378ms, respectively".
        PaperSpot{"Gb10Page10K2Units", 1000000, 10000, 10 * kKB, 0.378},
        // "100GB databases will require 10 coprocessors to retrieve 1KB
        // pages in 197ms".
        PaperSpot{"Gb100Page1K", 100000000, 200000, kKB, 0.197},
        // "... and 10KB pages in 613ms".
        PaperSpot{"Gb100Page10K", 10000000, 60000, 10 * kKB, 0.613},
        // "for 1TB databases, sub-second page retrieval times (727ms for
        // 1KB pages ...)".
        PaperSpot{"Tb1Page1K", 1000000000, 500000, kKB, 0.727},
        // "... and 907ms for 10KB pages".
        PaperSpot{"Tb1Page10K", 100000000, 400000, 10 * kKB, 0.907}),
    [](const ::testing::TestParamInfo<PaperSpot>& info) {
      return info.param.name;
    });

TEST(CostModelTest, StorageMatchesEq7) {
  // n=1e6, m=50000, k=29, B=1KB: 2.625MB map + 50030KB pages.
  const uint64_t bytes = CostModel::SecureStorageBytes(1000000, 50000, 29,
                                                       kKB);
  EXPECT_EQ(bytes, 2625000u + 50030u * kKB);
}

TEST(CostModelTest, QuerySecondsStructure) {
  HardwareProfile profile = HardwareProfile::Ibm4764();
  // k=0: 4 seeks + 2 pages (k+1 = 1, both directions).
  const double t = CostModel::QuerySeconds(0, kKB, profile);
  EXPECT_NEAR(t, 0.02 + 2000.0 * (1 / 100e6 + 1 / 80e6 + 1 / 10e6), 1e-12);
}

TEST(CostModelTest, TwoPartySpotChecks) {
  // Paper: "With 6GB of storage space ... 2 million pages in its cache,
  // achieving a query response time of 0.737s (for 1KB pages)".
  const HardwareProfile profile =
      HardwareProfile::TwoPartyOwner(16ull * hardware::kGB);
  Result<CostModel::Evaluation> a = CostModel::EvaluateTwoParty(
      1000000000, 2000000, kKB, 2.0, profile);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a->query_seconds, 0.737, 0.05);
  // "over 10GB of space is necessary to achieve ... 1.3s" (10KB pages,
  // m = 1e6).
  Result<CostModel::Evaluation> b = CostModel::EvaluateTwoParty(
      100000000, 1000000, 10 * kKB, 2.0, profile);
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(b->query_seconds, 1.3, 0.15);
  // Owner storage ~10GB: pageMap (1e8 * 28 bits) + m * 10KB.
  EXPECT_NEAR(static_cast<double>(b->storage_bytes) / hardware::kGB, 10.4,
              1.0);
}

TEST(CostModelTest, ResponseTimeDecreasesWithCache) {
  const HardwareProfile profile = HardwareProfile::Ibm4764();
  double prev = 1e9;
  for (uint64_t m : {1000u, 5000u, 10000u, 20000u, 50000u}) {
    Result<CostModel::Evaluation> eval =
        CostModel::Evaluate(1000000, m, kKB, 2.0, profile);
    ASSERT_TRUE(eval.ok());
    EXPECT_LT(eval->query_seconds, prev);
    prev = eval->query_seconds;
  }
}

TEST(CostModelTest, ResponseTimeIncreasesWithPrivacy) {
  const HardwareProfile profile = HardwareProfile::Ibm4764();
  double prev = 0;
  for (double eps : {1.0, 0.5, 0.1, 0.05, 0.01}) {
    Result<CostModel::Evaluation> eval =
        CostModel::Evaluate(10000000, 100000, kKB, 1.0 + eps, profile);
    ASSERT_TRUE(eval.ok());
    EXPECT_GT(eval->query_seconds, prev) << "eps=" << eps;
    prev = eval->query_seconds;
  }
}

TEST(CostModelTest, FigureGeneratorsProduceFullSeries) {
  EXPECT_EQ(GenerateFig4().size(), 20u);
  EXPECT_EQ(GenerateFig5().size(), 20u);
  EXPECT_EQ(GenerateFig6().size(), 20u);
  EXPECT_EQ(GenerateFig7().size(), 8u);
}

TEST(CostModelTest, Fig4ShapesMatchPaper) {
  // Within each database series, response time and storage move in
  // opposite directions as the cache grows.
  const std::vector<FigurePoint> points = GenerateFig4();
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].database != points[i - 1].database) {
      continue;
    }
    EXPECT_LT(points[i].response_seconds, points[i - 1].response_seconds);
    EXPECT_GT(points[i].storage_mb, points[i - 1].storage_mb);
  }
}

TEST(CostModelTest, Fig6SubSecondUpTo100GbAtEps01) {
  // "for databases up to 100GB, sub-second query response times are
  // achievable even for c = 1.1".
  for (const FigurePoint& point : GenerateFig6()) {
    if (point.epsilon == 0.1 && point.database != "1TB") {
      EXPECT_LT(point.response_seconds, 1.0) << point.database;
    }
  }
}

TEST(CostModelTest, SimulatorCrossValidatesEq8) {
  // Run the actual engine on a small database and compare the simulated
  // per-query time with Eq. 8. The simulator transfers sealed pages
  // (B + 52 bytes), so allow that overhead.
  constexpr size_t kPageSize = 1000;
  core::CApproxPir::Options options;
  options.num_pages = 256;
  options.page_size = kPageSize;
  options.cache_pages = 16;
  options.block_size = 16;
  auto stack = test::LoadedStack(options, 5);
  core::CApproxPir& engine = stack->engine();
  hardware::SecureCoprocessor& cpu = stack->cpu();

  crypto::SecureRandom rng(6);
  const auto before = cpu.cost().Snapshot();
  constexpr int kQueries = 100;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(engine.Retrieve(rng.UniformInt(256)).ok());
  }
  const auto delta = cpu.cost().Snapshot() - before;
  const double simulated = hardware::CostAccountant::Seconds(
                               delta, HardwareProfile::Ibm4764()) /
                           kQueries;
  const double analytic =
      CostModel::QuerySeconds(16, kPageSize, HardwareProfile::Ibm4764());
  EXPECT_NEAR(simulated, analytic, analytic * 0.06);
}

}  // namespace
}  // namespace shpir::model
