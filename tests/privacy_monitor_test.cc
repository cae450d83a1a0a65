#include "obs/privacy_monitor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/privacy_audit.h"
#include "common/check.h"
#include "crypto/secure_random.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"
#include "workload/workload.h"
#include "test_stack.h"

namespace shpir::obs {
namespace {

PrivacyMonitor::Options MakeOptions(uint64_t scan_period, uint64_t window,
                                    double configured_c = 0.0,
                                    uint64_t check_interval = 1) {
  PrivacyMonitor::Options options;
  options.scan_period = scan_period;
  options.window = window;
  options.configured_c = configured_c;
  options.check_interval = check_interval;
  return options;
}

/// Feeds one relocation with residency delay `delay` (entered at
/// `start`, evicted at `start + delay`).
void Feed(PrivacyMonitor& monitor, uint64_t id, uint64_t start,
          uint64_t delay) {
  monitor.OnCacheEntry(id, start);
  monitor.OnRelocation(id, start + delay);
}

TEST(PrivacyMonitorTest, BinsDelaysModuloScanPeriod) {
  PrivacyMonitor monitor(MakeOptions(/*scan_period=*/4, /*window=*/64));
  Feed(monitor, 1, 10, 1);  // Offset 0.
  Feed(monitor, 2, 10, 4);  // Offset 3.
  Feed(monitor, 3, 10, 5);  // Offset 0 (wraps).
  Feed(monitor, 4, 10, 2);  // Offset 1.
  Feed(monitor, 5, 10, 3);  // Offset 2.
  EXPECT_EQ(monitor.relocations(), 5u);
  Result<double> estimate = monitor.Estimate();
  ASSERT_TRUE(estimate.ok()) << estimate.status();
  EXPECT_DOUBLE_EQ(*estimate, 2.0);  // Bins {2, 1, 1, 1}.
}

TEST(PrivacyMonitorTest, EstimateNeedsFullBinCoverage) {
  PrivacyMonitor monitor(MakeOptions(3, 64));
  Feed(monitor, 1, 0, 1);
  const Result<double> estimate = monitor.Estimate();
  EXPECT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(monitor.EstimateOrZero(), 0.0);
}

TEST(PrivacyMonitorTest, SameRequestEvictionIsSkipped) {
  PrivacyMonitor monitor(MakeOptions(2, 64));
  Feed(monitor, 1, 5, 0);  // Entered and evicted in the same request.
  EXPECT_EQ(monitor.relocations(), 0u);
}

TEST(PrivacyMonitorTest, UnknownPageIsIgnored) {
  PrivacyMonitor monitor(MakeOptions(2, 64));
  monitor.OnRelocation(99, 7);  // Never entered while monitored.
  EXPECT_EQ(monitor.relocations(), 0u);
}

TEST(PrivacyMonitorTest, WindowEvictsOldestSamples) {
  PrivacyMonitor monitor(MakeOptions(/*scan_period=*/2, /*window=*/4));
  // Fill the window with balanced offsets: bins {2, 2}.
  Feed(monitor, 1, 0, 1);  // Offset 0.
  Feed(monitor, 2, 0, 2);  // Offset 1.
  Feed(monitor, 3, 0, 1);  // Offset 0.
  Feed(monitor, 4, 0, 2);  // Offset 1.
  ASSERT_TRUE(monitor.Estimate().ok());
  EXPECT_DOUBLE_EQ(*monitor.Estimate(), 1.0);
  // Two more offset-1 samples push out the two oldest (offsets 0, 1):
  // bins become {1, 3}.
  Feed(monitor, 5, 0, 2);
  Feed(monitor, 6, 0, 2);
  EXPECT_DOUBLE_EQ(*monitor.Estimate(), 3.0);
  // The window never grows past its size.
  EXPECT_EQ(monitor.relocations(), 6u);
}

TEST(PrivacyMonitorTest, BreachCountingIsEdgeTriggered) {
  // configured_c = 1.5, check every relocation.
  PrivacyMonitor monitor(MakeOptions(2, 64, /*configured_c=*/1.5));
  Feed(monitor, 1, 0, 1);
  Feed(monitor, 2, 0, 2);  // Bins {1, 1}: estimate 1.0, no breach.
  EXPECT_EQ(monitor.breaches(), 0u);
  Feed(monitor, 3, 0, 1);  // Bins {2, 1}: estimate 2.0 > 1.5 — breach.
  Feed(monitor, 4, 0, 1);  // Bins {3, 1}: still in breach, no new edge.
  EXPECT_EQ(monitor.breaches(), 1u);
  // Recover: {3, 2} -> 1.5 (not above c), {3, 3} -> 1.0.
  Feed(monitor, 5, 0, 2);
  Feed(monitor, 6, 0, 2);
  EXPECT_EQ(monitor.breaches(), 1u);
  // Breach again: {4, 3} -> 1.33, then {5, 3} -> 1.67 — a second edge.
  Feed(monitor, 7, 0, 1);
  Feed(monitor, 8, 0, 1);
  EXPECT_EQ(monitor.breaches(), 2u);
}

TEST(PrivacyMonitorTest, PublishesGaugeAndCounters) {
  MetricsRegistry registry;
  PrivacyMonitor monitor(MakeOptions(2, 64, /*configured_c=*/1.1));
  monitor.EnableMetrics(&registry);
  Feed(monitor, 1, 0, 1);
  Feed(monitor, 2, 0, 1);
  Feed(monitor, 3, 0, 2);  // Bins {2, 1}: estimate 2.0 > 1.1.
  monitor.PublishNow();
  const MetricsSnapshot snapshot = registry.Snapshot();
  double gauge = -1;
  for (const auto& g : snapshot.gauges) {
    if (g.name == "shpir_privacy_c_estimate") {
      gauge = g.value;
    }
  }
  EXPECT_DOUBLE_EQ(gauge, 2.0);
  uint64_t relocations = 0, breaches = 0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "shpir_privacy_relocations_total") {
      relocations = c.value;
    }
    if (c.name == "shpir_privacy_breaches_total") {
      breaches = c.value;
    }
  }
  EXPECT_EQ(relocations, 3u);
  EXPECT_EQ(breaches, 1u);
}

// --- Agreement with the offline audit -------------------------------------

TEST(PrivacyMonitorTest, OnlineEstimateMatchesOfflineAuditWithinTenPercent) {
  // Same geometry as the offline audit's convergence test: n=64, k=16,
  // T=4, m=8. The monitor rides the engine's internal hooks while
  // RunPrivacyAudit drives its own observers — two independent
  // measurements of one run.
  storage::AccessTrace trace;
  auto stack = test::ZeroFilledStack(&trace, /*n=*/64, /*m=*/8, /*k=*/16,
                                     /*seed=*/101);
  ASSERT_EQ(stack->engine().scan_period(), 4u);
  // Alert threshold sits 50% above the privacy target, as an operator
  // would deploy it: the estimate converges TO the target, so a
  // threshold at the target itself would alert on sampling noise.
  PrivacyMonitor monitor(
      MakeOptions(stack->engine().scan_period(), /*window=*/1 << 16,
                  stack->engine().achieved_privacy() * 1.5,
                  /*check_interval=*/256));
  stack->engine().AttachPrivacyMonitor(&monitor);

  crypto::SecureRandom workload(102);
  Result<analysis::PrivacyReport> report = analysis::RunPrivacyAudit(
      stack->engine(), /*num_requests=*/40000,
      [&]() { return workload.UniformInt(64); });
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->measured_c, 0.0);

  Result<double> online = monitor.Estimate();
  ASSERT_TRUE(online.ok()) << online.status();
  // Online window vs offline full-run tally of the same relocation
  // stream: within 10% of each other and of the analytic c.
  EXPECT_NEAR(*online, report->measured_c, report->measured_c * 0.10);
  EXPECT_NEAR(*online, report->analytic_c, report->analytic_c * 0.10);
  // The monitor saw (at least) every relocation the audit counted; the
  // delta is same-request evictions, which the analyzer also skips.
  EXPECT_GE(monitor.relocations(), report->relocations);
  // A healthy run never breaches its configured c.
  EXPECT_EQ(monitor.breaches(), 0u);
}

TEST(ShardedPrivacyMonitorTest, PerShardMonitorsPublishEstimates) {
  shard::ShardedPirEngine::Options options;
  options.num_pages = 256;
  options.page_size = 32;
  options.cache_pages = 8;
  options.privacy_c = 2.0;
  options.shards = 2;
  options.queue_depth = 1024;
  options.seed = 13;
  auto engine = shard::ShardedPirEngine::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Initialize({}).ok());

  MetricsRegistry registry;
  (*engine)->EnablePrivacyMonitor(&registry, /*window=*/1 << 16);
  workload::UniformWorkload wl(options.num_pages, 77);
  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE((*engine)->Retrieve(wl.Next()).ok());
  }
  (*engine)->WaitIdle();
  (*engine)->PublishPrivacyEstimates();

  // Every shard converged to a sane window estimate at/below ~c (cover
  // traffic keeps each shard's stream uniform, so the window estimate
  // sits near the analytic value; allow generous sampling slack).
  for (uint64_t s = 0; s < options.shards; ++s) {
    PrivacyMonitor* monitor = (*engine)->shard_monitor(s);
    ASSERT_NE(monitor, nullptr);
    Result<double> estimate = monitor->Estimate();
    ASSERT_TRUE(estimate.ok()) << "shard " << s << ": "
                               << estimate.status();
    EXPECT_GE(*estimate, 1.0);
    EXPECT_LT(*estimate, (*engine)->plan().worst_c() * 1.3);
  }

  // The shared gauge and fleet counters surfaced in the registry.
  const MetricsSnapshot snapshot = registry.Snapshot();
  bool saw_gauge = false;
  for (const auto& g : snapshot.gauges) {
    if (g.name == "shpir_privacy_c_estimate") {
      saw_gauge = true;
      EXPECT_GT(g.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_gauge);
  uint64_t relocations = 0;
  for (const auto& c : snapshot.counters) {
    if (c.name == "shpir_privacy_relocations_total") {
      relocations = c.value;
    }
  }
  EXPECT_GT(relocations, 0u);
  (*engine)->Drain();
}

TEST(PrivacyMonitorTest, MidWindowBlockSizeChangeRebasesCleanly) {
  // An online retune changes the scan period mid-window: the monitor
  // must discard the old-period samples (no stale estimate), start a
  // fresh window under the new period, and never manufacture a breach
  // out of the transition itself.
  storage::AccessTrace trace;
  auto stack = test::ZeroFilledStack(&trace, /*n=*/64, /*m=*/8, /*k=*/16,
                                     /*seed=*/31);
  ASSERT_EQ(stack->engine().scan_period(), 4u);
  // The bound sits above the analytic c of BOTH periods (k=16 -> 1.49,
  // k=8 -> 2.55): any breach counted in this test is spurious.
  PrivacyMonitor monitor(
      MakeOptions(stack->engine().scan_period(), /*window=*/1 << 14,
                  /*configured_c=*/4.0, /*check_interval=*/64));
  stack->engine().AttachPrivacyMonitor(&monitor);

  crypto::SecureRandom workload(32);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(workload.UniformInt(64)).ok());
  }
  Result<double> before = monitor.Estimate();
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_NEAR(*before, std::pow(8.0 / 7.0, 3), *before * 0.25);
  EXPECT_EQ(monitor.breaches(), 0u);

  // Retune 16 -> 8 and drive it across the scan-period boundary.
  ASSERT_TRUE(stack->engine().RequestBlockSize(8).ok());
  for (int i = 0; stack->engine().block_size_transitions() == 0 && i < 64;
       ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(workload.UniformInt(64)).ok());
  }
  ASSERT_EQ(stack->engine().block_size_transitions(), 1u);

  // The monitor rebased with the engine: new period, window discarded.
  EXPECT_EQ(monitor.scan_period(), 8u);
  EXPECT_EQ(monitor.rebases(), 1u);
  // No stale window: the estimate is unavailable again until every
  // new-period bin has samples — old-period data cannot leak through.
  EXPECT_FALSE(monitor.Estimate().ok());
  EXPECT_EQ(monitor.breaches(), 0u);

  // Refill under the new period: the estimate converges to the k=8
  // analytic value, and the transition never latched a breach.
  for (int i = 0; i < 8000; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(workload.UniformInt(64)).ok());
  }
  Result<double> after = monitor.Estimate();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NEAR(*after, std::pow(8.0 / 7.0, 7), *after * 0.25);
  EXPECT_EQ(monitor.breaches(), 0u);
  EXPECT_EQ(monitor.rebases(), 1u);
}

TEST(PrivacyMonitorTest, RebaseToSamePeriodIsANoOp) {
  PrivacyMonitor monitor(MakeOptions(/*scan_period=*/4, /*window=*/64));
  Feed(monitor, 1, 0, 1);
  Feed(monitor, 2, 0, 2);
  monitor.OnScanPeriodChange(4);
  EXPECT_EQ(monitor.rebases(), 0u);
  EXPECT_EQ(monitor.relocations(), 2u);
}

}  // namespace
}  // namespace shpir::obs
