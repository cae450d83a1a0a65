#include "analysis/privacy_audit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/relocation_analyzer.h"
#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/security_parameter.h"
#include "crypto/secure_random.h"
#include "test_stack.h"

namespace shpir::analysis {
namespace {

TEST(RelocationAnalyzerTest, TracksDelaysModuloScanPeriod) {
  RelocationAnalyzer analyzer(/*scan_period=*/4, /*block_size=*/2);
  analyzer.OnCacheEntry(1, 10);
  analyzer.OnRelocation(1, 0, 11);  // Delay 1 -> offset 0.
  analyzer.OnCacheEntry(2, 10);
  analyzer.OnRelocation(2, 1, 14);  // Delay 4 -> offset 3.
  analyzer.OnCacheEntry(3, 10);
  analyzer.OnRelocation(3, 2, 15);  // Delay 5 -> offset 0 (wraps).
  EXPECT_EQ(analyzer.samples(), 3u);
  const std::vector<double> dist = analyzer.MeasuredBlockDistribution();
  EXPECT_NEAR(dist[0], 2.0 / 3, 1e-9);
  EXPECT_NEAR(dist[3], 1.0 / 3, 1e-9);
}

TEST(RelocationAnalyzerTest, IgnoresUnknownPages) {
  RelocationAnalyzer analyzer(4, 2);
  analyzer.OnRelocation(99, 0, 5);  // Never entered the cache.
  EXPECT_EQ(analyzer.samples(), 0u);
}

TEST(RelocationAnalyzerTest, MeasuredPrivacyNeedsFullCoverage) {
  RelocationAnalyzer analyzer(3, 2);
  analyzer.OnCacheEntry(1, 0);
  analyzer.OnRelocation(1, 0, 1);
  EXPECT_FALSE(analyzer.MeasuredPrivacy().ok());
}

TEST(EntropyTest, UniformCountsGiveFullEntropy) {
  EXPECT_NEAR(ShannonEntropyBits({10, 10, 10, 10}), 2.0, 1e-9);
  EXPECT_NEAR(NormalizedEntropy({10, 10, 10, 10}), 1.0, 1e-9);
}

TEST(EntropyTest, DegenerateCountsGiveZeroEntropy) {
  EXPECT_NEAR(ShannonEntropyBits({40, 0, 0, 0}), 0.0, 1e-9);
  EXPECT_NEAR(NormalizedEntropy({40, 0, 0, 0}), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(ShannonEntropyBits({}), 0.0);
}

TEST(PrivacyAuditTest, MeasuredPrivacyConvergesToAnalytic) {
  // Small geometry so every scan offset gets plenty of samples:
  // n=64 slots, k=16, T=4, m=8 -> analytic c = (1-1/8)^-3 = 1.49.
  storage::AccessTrace trace;
  auto stack = test::ZeroFilledStack(&trace, /*n=*/64, /*m=*/8, /*k=*/16,
                                     /*seed=*/1);
  ASSERT_EQ(stack->engine().scan_period(), 4u);
  crypto::SecureRandom workload(2);
  Result<PrivacyReport> report = RunPrivacyAudit(
      stack->engine(), /*num_requests=*/40000,
      [&]() { return workload.UniformInt(64); });
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->requests, 40000u);
  EXPECT_GT(report->relocations, 30000u);
  const double analytic = report->analytic_c;
  EXPECT_NEAR(analytic, std::pow(1.0 - 1.0 / 8, -3.0), 1e-9);
  // Empirical ratio within 10% of the analytic c.
  EXPECT_NEAR(report->measured_c, analytic, analytic * 0.10);
  // Distribution shape matches Eqs. 2-4 within 10% per bin.
  EXPECT_LT(report->max_relative_deviation, 0.10);
  // Within-block slot choice is uniform.
  EXPECT_GT(report->slot_entropy, 0.999);
}

TEST(PrivacyAuditTest, SkewedWorkloadStillMatchesModel) {
  // The relocation distribution is a property of the mechanism, not the
  // workload: a heavily skewed request stream must yield the same c.
  storage::AccessTrace trace;
  auto stack = test::ZeroFilledStack(&trace, 64, 8, 16, 3);
  crypto::SecureRandom workload(4);
  Result<PrivacyReport> report =
      RunPrivacyAudit(stack->engine(), 40000, [&]() -> storage::PageId {
        // 90% of requests hit 4 hot pages.
        return workload.UniformInt(10) < 9
                   ? workload.UniformInt(4)
                   : workload.UniformInt(64);
      });
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->measured_c, report->analytic_c,
              report->analytic_c * 0.12);
}

TEST(PrivacyAuditTest, SmallerCacheMeansWeakerPrivacy) {
  storage::AccessTrace tight_trace;
  auto tight = test::ZeroFilledStack(&tight_trace, 64, 4, 16, 5);
  storage::AccessTrace loose_trace;
  auto loose = test::ZeroFilledStack(&loose_trace, 64, 16, 16, 6);
  crypto::SecureRandom w1(7), w2(8);
  Result<PrivacyReport> tight_report = RunPrivacyAudit(
      tight->engine(), 30000, [&]() { return w1.UniformInt(64); });
  Result<PrivacyReport> loose_report = RunPrivacyAudit(
      loose->engine(), 30000, [&]() { return w2.UniformInt(64); });
  ASSERT_TRUE(tight_report.ok());
  ASSERT_TRUE(loose_report.ok());
  EXPECT_GT(tight_report->measured_c, loose_report->measured_c);
  EXPECT_GT(tight_report->analytic_c, loose_report->analytic_c);
}

TEST(PrivacyAuditTest, AblationSkipUniformSwapBreaksSlotUniformity) {
  core::CApproxPir::Options ablated;
  ablated.ablation_skip_uniform_swap = true;
  storage::AccessTrace trace;
  auto stack = test::ZeroFilledStack(&trace, 64, 8, 16, 20, ablated);
  crypto::SecureRandom workload(21);
  Result<PrivacyReport> report = RunPrivacyAudit(
      stack->engine(), 20000, [&]() { return workload.UniformInt(64); });
  ASSERT_TRUE(report.ok());
  // Evicted pages pile into slot 0 of each block: the within-block
  // distribution collapses (healthy runs measure > 0.999).
  EXPECT_LT(report->slot_entropy, 0.5);
}

TEST(PrivacyAuditTest, AblationRoundRobinEvictionBreaksModel) {
  core::CApproxPir::Options ablated;
  ablated.ablation_round_robin_eviction = true;
  storage::AccessTrace trace;
  auto stack = test::ZeroFilledStack(&trace, 64, 8, 16, 22, ablated);
  crypto::SecureRandom workload(23);
  Result<PrivacyReport> report = RunPrivacyAudit(
      stack->engine(), 20000, [&]() { return workload.UniformInt(64); });
  ASSERT_TRUE(report.ok());
  // Residency time becomes deterministic (exactly m requests), so most
  // scan offsets never receive a relocation: either the measured ratio
  // is unavailable (0) or the distribution deviates wildly.
  EXPECT_TRUE(report->measured_c == 0.0 ||
              report->max_relative_deviation > 0.5)
      << "measured_c=" << report->measured_c
      << " dev=" << report->max_relative_deviation;
}

TEST(TraceStatisticsTest, WritesSpreadUniformly) {
  storage::AccessTrace trace;
  auto stack = test::ZeroFilledStack(&trace, 64, 8, 16, 9);
  trace.Clear();  // Drop the bulk-load writes.
  crypto::SecureRandom workload(10);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(workload.UniformInt(64)).ok());
  }
  const TraceStatistics stats =
      AnalyzeTrace(trace, stack->engine().block_size(),
                   stack->engine().disk_slots());
  EXPECT_EQ(stats.reads, stats.writes);
  // Round-robin writes cover the disk almost uniformly.
  EXPECT_GT(stats.write_location_entropy, 0.99);
  // Extra reads must not concentrate despite a uniform workload.
  EXPECT_GT(stats.extra_read_entropy, 0.95);
}

TEST(TraceStatisticsTest, AblationLruEvictionWouldBreakUniformity) {
  // Sanity-check the metric itself: a degenerate trace that always
  // rewrites the same slot has near-zero entropy.
  storage::AccessTrace trace;
  for (int i = 0; i < 100; ++i) {
    trace.BeginRequest();
    trace.RecordRead(0);
    trace.RecordWrite(3);
  }
  const TraceStatistics stats = AnalyzeTrace(trace, 1, 64);
  EXPECT_LT(stats.write_location_entropy, 0.01);
}

}  // namespace
}  // namespace shpir::analysis
