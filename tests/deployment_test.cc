// Deployment-level scenarios: multi-coprocessor capacity, end-to-end
// Fig. 4 shape on the real simulator, and Eq. 8 cross-validation sweeps.

#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "core/security_parameter.h"
#include "crypto/secure_random.h"
#include "model/cost_model.h"
#include "test_stack.h"

namespace shpir {
namespace {

constexpr size_t kPageSize = 1000;

/// Simulated mean per-query seconds for a (n, m, k) geometry.
double MeasureQuerySeconds(uint64_t n, uint64_t m, uint64_t k,
                           uint64_t seed) {
  core::CApproxPir::Options options;
  options.num_pages = n;
  options.page_size = kPageSize;
  options.cache_pages = m;
  options.block_size = k;
  auto stack = test::LoadedStack(options, seed);
  core::CApproxPir& engine = stack->engine();
  crypto::SecureRandom rng(seed + 1);
  const auto before = stack->cpu().cost().Snapshot();
  constexpr int kQueries = 30;
  for (int i = 0; i < kQueries; ++i) {
    SHPIR_CHECK(engine.Retrieve(rng.UniformInt(n)).ok());
  }
  const auto delta = stack->cpu().cost().Snapshot() - before;
  return hardware::CostAccountant::Seconds(
             delta, hardware::HardwareProfile::Ibm4764()) /
         kQueries;
}

TEST(DeploymentTest, MultiUnitArrayUnlocksBiggerCaches) {
  // A geometry whose Eq. 7 footprint exceeds one 64MB unit but fits
  // two: pageMap is tiny here, so the cache dominates.
  core::CApproxPir::Options options;
  options.num_pages = 200000;
  options.page_size = kPageSize;
  options.cache_pages = 100000;  // 100MB of cache pages.
  options.block_size = 16;
  auto too_big = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), 1);
  EXPECT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);

  auto fits = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764Array(2), 2);
  EXPECT_TRUE(fits.ok()) << fits.status();
}

TEST(DeploymentTest, Fig4ShapeHoldsOnTheSimulator) {
  // Larger cache (at fixed privacy c = 2) means smaller k and lower
  // simulated response time — Fig. 4's downward curve, measured on the
  // actual engine rather than the closed form.
  const uint64_t n = 4096;
  double prev = 1e9;
  for (uint64_t m : {64u, 128u, 256u, 512u}) {
    auto k = core::SecurityParameter::BlockSize(n, m, 2.0);
    ASSERT_TRUE(k.ok());
    const double seconds = MeasureQuerySeconds(n, m, *k, m);
    EXPECT_LT(seconds, prev) << "m=" << m;
    prev = seconds;
  }
}

class Eq8CrossValidation
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(Eq8CrossValidation, SimulatorTracksClosedForm) {
  const auto [n, k] = GetParam();
  const double simulated = MeasureQuerySeconds(n, 32, k, n + k);
  const double analytic = model::CostModel::QuerySeconds(
      k, kPageSize, hardware::HardwareProfile::Ibm4764());
  // Allow the sealed-page overhead (52B on 1000B pages, < 6%).
  EXPECT_NEAR(simulated, analytic, analytic * 0.06)
      << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Eq8CrossValidation,
    ::testing::Values(std::tuple{512u, 4u}, std::tuple{512u, 16u},
                      std::tuple{2048u, 8u}, std::tuple{2048u, 64u},
                      std::tuple{8192u, 32u}, std::tuple{8192u, 128u}),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "k";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

}  // namespace
}  // namespace shpir
