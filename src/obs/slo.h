#ifndef SHPIR_OBS_SLO_H_
#define SHPIR_OBS_SLO_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace shpir::obs {

class MetricsRegistry;

/// SLO / error-budget tracker for one serving unit (a shard, or a
/// storage server). Tracks two SLIs over a ring of coarse time
/// buckets:
///
///  - availability: fraction of requests that succeeded;
///  - latency: fraction of *successful* requests faster than the
///    configured threshold.
///
/// Each SLI gets SRE-style multi-window burn-rate alerting: a rule
/// fires only when both its short and long windows burn error budget
/// faster than the threshold — the short window makes alerts recent,
/// the long window makes them significant. Alert transitions are
/// edge-triggered: re-evaluating a firing rule is idempotent and only
/// the inactive→firing edge increments the transition counter.
///
/// Trust boundary: the tracker stores only per-bucket counts of
/// {total, error, slow} — no page ids, no per-request records — and
/// every request (real or cover; see docs/SHARDING.md) is recorded
/// identically, so SLO state is independent of any secret target.
///
/// Recording is mutex-protected bucket arithmetic (the serving path
/// already pays a dispatcher mutex per request); evaluation scans the
/// ring, O(buckets).
class SloTracker {
 public:
  struct Objectives {
    /// A successful request slower than this counts against the
    /// latency SLI.
    uint64_t latency_threshold_ns = 50'000'000;  // 50 ms.
    /// Target fraction of successful requests under the threshold.
    double latency_objective = 0.999;
    /// Target fraction of requests that succeed.
    double availability_objective = 0.999;
    /// Ring geometry: horizon = bucket_seconds * num_buckets must
    /// cover the longest burn-rule window (defaults: 60 s x 360 = 6 h).
    uint64_t bucket_seconds = 60;
    size_t num_buckets = 360;
  };

  /// Multi-window burn-rate rule: fires when the error-budget burn
  /// rate exceeds `burn_threshold` over BOTH windows.
  struct BurnRule {
    const char* name;  // Static literal ("fast"/"slow").
    uint64_t short_window_s;
    uint64_t long_window_s;
    double burn_threshold;
  };

  static constexpr size_t kNumRules = 2;
  /// Google SRE workbook defaults: page on 14.4x burn over 5m/1h,
  /// ticket on 6x burn over 30m/6h.
  static constexpr std::array<BurnRule, kNumRules> kDefaultRules = {
      BurnRule{"fast", 300, 3600, 14.4},
      BurnRule{"slow", 1800, 21600, 6.0},
  };

  /// Evaluated state of one (SLI, rule) pair.
  struct RuleState {
    const char* rule = "";
    double short_burn = 0.0;
    double long_burn = 0.0;
    bool firing = false;
  };

  /// Evaluated state of one SLI.
  struct SliState {
    const char* sli = "";          // "availability" | "latency".
    double objective = 0.0;
    uint64_t total = 0;            // Requests in the horizon.
    uint64_t bad = 0;              // Budget-consuming requests.
    /// Fraction of the horizon's error budget still unspent, in
    /// [0, 1]; 0 when overspent.
    double budget_remaining = 1.0;
    std::array<RuleState, kNumRules> rules{};
  };

  struct Snapshot {
    uint64_t requests_total = 0;   // Lifetime, not windowed.
    uint64_t errors_total = 0;
    uint64_t slow_total = 0;
    uint64_t alert_transitions = 0;
    SliState availability;
    SliState latency;
  };

  explicit SloTracker(const Objectives& objectives);
  SloTracker() : SloTracker(Objectives{}) {}

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Records one finished request at the steady clock's now.
  void Record(uint64_t latency_ns, bool ok);

  /// Deterministic variant for tests: `now_ns` must be monotonically
  /// non-decreasing across calls.
  void RecordAt(uint64_t now_ns, uint64_t latency_ns, bool ok);

  /// Evaluates burn rates and steps the alert state machines.
  Snapshot Evaluate();
  Snapshot EvaluateAt(uint64_t now_ns);

  /// Closed-schema JSON of the "slo" admin document.
  std::string ToJson();
  std::string ToJsonAt(uint64_t now_ns);

  /// Registers shpir_slo_* callback gauges on `registry`, prefixed so
  /// several trackers can share one registry (`prefix` must be a valid
  /// metric-name fragment, e.g. "shard" -> shpir_slo_shard_...; empty
  /// for none). The tracker must outlive the registry's last
  /// Snapshot().
  void PublishMetrics(MetricsRegistry* registry,
                      const std::string& prefix = "");

  const Objectives& objectives() const { return objectives_; }

  /// Renders an evaluated snapshot as JSON (shared by ToJson and the
  /// sharded engine's fleet-level status document).
  static std::string SnapshotJson(const Snapshot& snapshot);

 private:
  struct Bucket {
    uint64_t epoch = 0;  // Bucket index since time zero; 0 = unused.
    uint64_t total = 0;
    uint64_t errors = 0;
    uint64_t slow = 0;   // Successful but over the latency threshold.
  };

  struct WindowCounts {
    uint64_t total = 0;
    uint64_t errors = 0;
    uint64_t slow = 0;
  };

  Bucket& BucketFor(uint64_t now_ns) REQUIRES(mutex_);
  WindowCounts CountWindow(uint64_t now_ns, uint64_t window_s) const
      REQUIRES(mutex_);
  Snapshot EvaluateLocked(uint64_t now_ns) REQUIRES(mutex_);

  Objectives objectives_;

  mutable common::Mutex mutex_;
  std::vector<Bucket> buckets_ GUARDED_BY(mutex_);
  uint64_t requests_total_ GUARDED_BY(mutex_) = 0;
  uint64_t errors_total_ GUARDED_BY(mutex_) = 0;
  uint64_t slow_total_ GUARDED_BY(mutex_) = 0;
  uint64_t alert_transitions_ GUARDED_BY(mutex_) = 0;
  // Alert latches: [sli][rule], sli 0 = availability, 1 = latency.
  std::array<std::array<bool, kNumRules>, 2> firing_ GUARDED_BY(mutex_){};
};

}  // namespace shpir::obs

#endif  // SHPIR_OBS_SLO_H_
