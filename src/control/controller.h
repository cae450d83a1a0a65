#ifndef SHPIR_CONTROL_CONTROLLER_H_
#define SHPIR_CONTROL_CONTROLLER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "obs/admin.h"
#include "obs/eventlog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace shpir::shard {
class ShardedPirEngine;
}  // namespace shpir::shard

namespace shpir::control {

/// Aggregate control inputs for one shard, read once per tick. Every
/// field is a fleet-level aggregate the trust boundary already exports
/// (published k, window c-estimate, queue occupancy, burn rates) — no
/// page ids, no request indices, nothing secret-derived.
struct ShardSignals {
  uint64_t block_size = 0;          // Applied k (published).
  uint64_t pending_block_size = 0;  // 0 when no transition in flight.
  double c_estimate = 0.0;          // Live Eq. 5 estimate; 0 = warming.
  double queue_fraction = 0.0;      // Dispatcher depth / capacity.
  double burn = 0.0;   // Worst SLO burn rate / its alert threshold.
  bool slo_firing = false;  // Any burn-rate rule currently firing.
};

/// What the controller observes and actuates: per-shard public geometry
/// (the feasible k ladder derives from it), live signals, and the
/// retune request. Implemented over ShardedPirEngine for serving
/// (ShardedEnginePlant) and by fakes/simulations in tests and benches.
class ControlPlant {
 public:
  virtual ~ControlPlant() = default;
  virtual uint64_t shards() const = 0;
  virtual uint64_t disk_slots(uint64_t shard) const = 0;
  virtual uint64_t cache_pages(uint64_t shard) const = 0;
  virtual ShardSignals Read(uint64_t shard) = 0;
  /// Requests an online block-size change; applied by the engine at its
  /// next scan-period boundary. ResourceExhausted = retry next tick.
  virtual Status RequestBlockSize(uint64_t shard, uint64_t new_k) = 0;
};

/// Production plant: reads PrivacyMonitor c-estimates, SloTracker burn
/// rates and dispatcher queue depth off a ShardedPirEngine, and routes
/// retunes through its per-shard worker queues.
class ShardedEnginePlant : public ControlPlant {
 public:
  explicit ShardedEnginePlant(shard::ShardedPirEngine* engine)
      : engine_(engine) {}

  uint64_t shards() const override;
  uint64_t disk_slots(uint64_t shard) const override;
  uint64_t cache_pages(uint64_t shard) const override;
  ShardSignals Read(uint64_t shard) override;
  Status RequestBlockSize(uint64_t shard, uint64_t new_k) override;

 private:
  shard::ShardedPirEngine* engine_;
};

/// Closed-loop privacy/cost controller: the paper's "adjustable
/// trade-off" (Eq. 5: smaller k → cheaper 2(k+1)-page rounds → larger
/// c) made operational. Once per tick it reads each shard's signals and
/// steps that shard's block size one rung along a precomputed feasible
/// ladder:
///
///  - pressure >= pressure_high  → step k DOWN one rung (spend privacy
///    headroom for latency; never below the ladder, whose every rung
///    satisfies c(k) <= c_bound);
///  - pressure <= pressure_low   → step k UP one rung (reclaim
///    privacy off-peak);
///  - in between                 → hold (the hysteresis band prevents
///    oscillation), and a change is followed by `cooldown_ticks` of
///    forced holds so one transition settles before the next.
///
/// Pressure is max(queue occupancy, SLO burn), both in [0, ~1+].
/// Independent of the bands, a live c-estimate above c_bound is an
/// emergency: the controller clamps straight to the most private
/// feasible rung (largest k), counts it in emergency_clamps(), and —
/// with a flight recorder attached — seals an incident bundle.
///
/// Safety invariants (see docs/CONTROL.md):
///  1. Every rung satisfies Eq. 5 c(disk_slots, m, k) <= c_bound, so no
///     decision can promise a weaker bound than configured.
///  2. Retunes land only at scan-period boundaries (engine-enforced),
///     keeping the round-robin schedule query-independent.
///  3. The controller consumes and emits only public aggregates; its
///     event/trace shapes are secret-independent (paired-rig tested).
///
/// Every tick is auditable: an input snapshot + decision + outcome per
/// shard lands in the decision trail (StatusJson / the "control" admin
/// document), structured events, shpir_control_* metrics, and one
/// "control_tick" trace span.
class PrivacyCostController {
 public:
  struct Options {
    /// Inclusive feasible range for k; k_max == 0 means unbounded.
    uint64_t k_min = 1;
    uint64_t k_max = 0;
    /// Hard privacy ceiling: every ladder rung keeps Eq. 5 c below it,
    /// and a live estimate above it triggers the emergency clamp.
    /// Required > 1.
    double c_bound = 0.0;
    /// Hysteresis band on the pressure signal.
    double pressure_high = 0.75;
    double pressure_low = 0.25;
    /// Forced-hold ticks after an applied change.
    uint64_t cooldown_ticks = 2;
    /// Decisions kept in the auditable trail (ring).
    size_t decision_trail = 64;
    /// Background tick period (Start()).
    std::chrono::milliseconds tick_interval{1000};
    /// Begin frozen: observe and record, but never actuate.
    bool start_frozen = false;
  };

  /// Decision outcome per shard per tick.
  enum class Outcome : uint8_t {
    kHold = 0,      // In band, in cooldown, or at the ladder edge.
    kApplied = 1,   // Step accepted; transition pending at the engine.
    kDeferred = 2,  // A previous transition is still pending.
    kSkipped = 3,   // Step wanted but the request was rejected.
    kClamped = 4,   // Emergency privacy clamp submitted.
    kFrozen = 5,    // Controller frozen; observed only.
  };
  static const char* OutcomeName(Outcome outcome);

  /// One auditable decision: the input snapshot it was taken on, what
  /// was decided, and what happened.
  struct Decision {
    uint64_t tick = 0;
    uint64_t shard = 0;
    Outcome outcome = Outcome::kHold;
    uint64_t k_before = 0;
    uint64_t k_target = 0;  // == k_before when nothing was requested.
    double pressure = 0.0;
    double c_estimate = 0.0;
    double c_theory = 0.0;
    double queue_fraction = 0.0;
    double burn = 0.0;
  };

  /// Validates options (c_bound > 1, 0 <= low < high), computes each
  /// shard's feasible ladder — the divisors k of its disk_slots with
  /// disk_slots >= 2k, k within [k_min, k_max] and Eq. 5 c(k) <=
  /// c_bound — and fails if any shard has no feasible rung. `plant` is
  /// unowned and must outlive the controller.
  static Result<std::unique_ptr<PrivacyCostController>> Create(
      const Options& options, ControlPlant* plant);

  ~PrivacyCostController();

  PrivacyCostController(const PrivacyCostController&) = delete;
  PrivacyCostController& operator=(const PrivacyCostController&) = delete;

  /// One synchronous control tick over all shards (deterministic tests
  /// and simulation benches drive this directly).
  void TickNow();

  /// Background ticking every Options::tick_interval. Idempotent.
  void Start();
  /// Stops and joins the background thread. Idempotent; also run by the
  /// destructor.
  void Stop();

  /// --- Operator verbs (the "control" admin document) ------------------

  /// Freeze: keep observing and recording, stop actuating.
  void Freeze();
  void Unfreeze();
  bool frozen() const;

  /// Replaces [k_min, k_max] and recomputes every shard's ladder; fails
  /// (leaving the old bounds) if a shard would end up with no rung.
  Status SetBounds(uint64_t k_min, uint64_t k_max);

  /// Closed-schema status document: bounds, per-shard live state +
  /// ladder, and the decision trail. Served as the "control" document.
  std::string StatusJson();

  /// --- Observability --------------------------------------------------

  /// Registers shpir_control_* instruments (tick/decision counters by
  /// outcome, current-k / effective-c / headroom / frozen gauges). Pass
  /// nullptr to detach.
  void EnableMetrics(obs::MetricsRegistry* registry);
  /// Structured decision events: "control_tick" per tick plus one
  /// "control_decision" per non-hold decision and a kWarn
  /// "control_privacy_clamp" per emergency clamp. Static names, numeric
  /// aggregate fields only.
  void EnableEventLog(obs::EventLog* log);
  /// One "control_tick" root span per tick (head-sampled).
  void EnableTracing(obs::Tracer* tracer);
  /// Registers the "privacy_clamp" edge trigger on `recorder` (debounced
  /// there like every trigger) and polls it after clamping ticks.
  void EnableFlightRecorder(obs::FlightRecorder* recorder);

  /// --- Introspection --------------------------------------------------

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  uint64_t emergency_clamps() const {
    return clamps_.load(std::memory_order_relaxed);
  }
  /// Feasible ladder for `shard` under the current bounds, ascending.
  std::vector<uint64_t> Ladder(uint64_t shard) const;
  /// Most recent decisions, oldest first.
  std::vector<Decision> Trail() const;

 private:
  PrivacyCostController(const Options& options, ControlPlant* plant,
                        std::vector<std::vector<uint64_t>> ladders);

  /// Feasible rungs for one shard under [k_min, k_max] and c_bound.
  static std::vector<uint64_t> ComputeLadder(uint64_t disk_slots,
                                             uint64_t cache_pages,
                                             uint64_t k_min, uint64_t k_max,
                                             double c_bound);

  Decision DecideShard(uint64_t shard, uint64_t tick,
                       const ShardSignals& signals) REQUIRES(mutex_);
  void RecordDecision(const Decision& decision) REQUIRES(mutex_);

  Options options_;
  ControlPlant* plant_;

  mutable common::Mutex mutex_;
  bool frozen_ GUARDED_BY(mutex_);
  uint64_t k_min_ GUARDED_BY(mutex_);
  uint64_t k_max_ GUARDED_BY(mutex_);
  /// Per-shard ascending feasible k values under the current bounds.
  std::vector<std::vector<uint64_t>> ladders_ GUARDED_BY(mutex_);
  /// Per-shard forced-hold ticks remaining after an applied change.
  std::vector<uint64_t> cooldown_ GUARDED_BY(mutex_);
  std::deque<Decision> trail_ GUARDED_BY(mutex_);

  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> clamps_{0};

  /// Background thread control.
  common::Mutex thread_mutex_;
  common::CondVar thread_cv_;
  bool stop_ GUARDED_BY(thread_mutex_) = false;
  std::thread thread_;

  obs::EventLog* eventlog_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;

  struct Instruments {
    obs::Counter* ticks = nullptr;
    obs::Counter* held = nullptr;
    obs::Counter* applied = nullptr;
    obs::Counter* deferred = nullptr;
    obs::Counter* skipped = nullptr;
    obs::Counter* clamped = nullptr;
    obs::Counter* frozen = nullptr;
    obs::Gauge* block_size_k = nullptr;
    obs::Gauge* effective_c = nullptr;
    obs::Gauge* headroom = nullptr;
    obs::Gauge* pressure = nullptr;
    obs::Gauge* frozen_gauge = nullptr;
  };
  Instruments instruments_;
  bool metered() const { return instruments_.ticks != nullptr; }
};

/// Registers the "control" admin document for `controller` (unowned,
/// must outlive the registry's use). Its argument is empty (status),
/// `freeze`, `unfreeze` or `set-bounds KMIN KMAX` (KMAX 0 = unbounded);
/// every form answers with the post-action StatusJson(). A malformed
/// argument is rejected before the controller is touched. The document
/// changes state, so serve it only where ADMIN is authenticated: the
/// hub's sealed session.
void RegisterControlDocument(PrivacyCostController* controller,
                             obs::AdminRegistry* registry);

}  // namespace shpir::control

#endif  // SHPIR_CONTROL_CONTROLLER_H_
