#ifndef SHPIR_OBS_FLIGHT_RECORDER_H_
#define SHPIR_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace shpir::obs {

class EventLog;
class MetricsRegistry;
class Profiler;
class Tracer;

/// Black-box incident recorder. The other pillars answer "how is the
/// system doing"; the flight recorder answers "what was happening when
/// it went wrong". Edge-triggered signals — a privacy-monitor breach,
/// an SLO burn alert, a dispatcher overload spike, or a manual
/// trigger — seal an *incident bundle*: the recent event log, the
/// recent span buffer, a full metrics snapshot, a profiler fold, and
/// the config fingerprint, all captured at the moment of the trigger.
/// Bundles live in a bounded store of the last K incidents (oldest
/// evicted) and can optionally be spilled to disk for CI artifact
/// upload (SHPIR_INCIDENT_DIR).
///
/// Trust boundary: a bundle is an aggregation of surfaces that are
/// each already secret-independent (event shapes, span shapes,
/// aggregate metrics, profile folds, public config), so the bundle
/// itself is — tests/incident_shape_test.cc proves bundles are
/// shape-identical across secret targets.
class FlightRecorder {
 public:
  struct Options {
    /// Bounded store: only the most recent `max_incidents` bundles are
    /// kept.
    size_t max_incidents = 8;
    /// Debounce between automatic seals; a trigger edge inside the
    /// window is counted in debounced() but seals nothing. Manual
    /// Trigger() ignores the debounce.
    uint64_t min_interval_ns = 1000000000ULL;
    /// Directory to also write each bundle to as
    /// incident_<id>.json; empty = use $SHPIR_INCIDENT_DIR, and skip
    /// spilling when that is unset too.
    std::string spill_dir;
  };

  explicit FlightRecorder(const Options& options);
  FlightRecorder() : FlightRecorder(Options{}) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Attach the surfaces a bundle captures. All optional; attach
  /// before the first Poll()/Trigger() and keep alive for the
  /// recorder's lifetime.
  void AttachEventLog(const EventLog* log) { eventlog_ = log; }
  void AttachTracer(const Tracer* tracer) { tracer_ = tracer; }
  void AttachMetrics(const MetricsRegistry* metrics) { metrics_ = metrics; }
  void AttachProfiler(const Profiler* profiler) { profiler_ = profiler; }
  /// Public build/config description ("pages=4096 k=16 c=2.0 ...").
  void SetConfigFingerprint(std::string fingerprint);

  /// Registers an edge trigger: `counter` is read on every Poll() and
  /// an increase over its last-seen value seals a bundle (subject to
  /// the debounce). `reason` must be a string literal.
  void AddTrigger(const char* reason, std::function<uint64_t()> counter);

  /// Reads every trigger counter; seals at most one bundle per call
  /// (the first fired trigger wins; later edges fire on the next
  /// poll). Returns the number of bundles sealed (0 or 1). Cheap when
  /// nothing fired: one mutex and one counter read per trigger.
  size_t Poll();

  /// Seals a bundle unconditionally. Returns the incident id.
  uint64_t Trigger(const char* reason);

  /// One sealed bundle. `shape` is the secret-independence digest
  /// computed at seal time (reason + event shape + sorted span names +
  /// metric names) — byte-identical across secret targets.
  struct Incident {
    uint64_t id = 0;
    uint64_t sealed_ns = 0;
    std::string reason;
    uint64_t trigger_value = 0;
    std::string config_fingerprint;
    std::string events_json;
    std::string spans_json;
    std::string metrics_json;
    std::string profile_collapsed;
    std::string shape;
  };

  /// Copies of the stored bundles, oldest first.
  std::vector<Incident> List() const;

  /// Summary JSON, the "incidents" admin document:
  ///   {"sealed":N,"debounced":N,"incidents":[{"id":..,"sealed_ns":..,
  ///    "reason":"..","trigger_value":..}]}
  std::string ListJson() const;

  /// Full bundle JSON ("incidents ID"); empty string when `id` is not in
  /// the store (evicted or never sealed).
  std::string ShowJson(uint64_t id) const;

  uint64_t sealed() const { return sealed_.load(std::memory_order_relaxed); }
  uint64_t debounced() const {
    return debounced_.load(std::memory_order_relaxed);
  }
  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }

  const Options& options() const { return options_; }

  /// Registers shpir_incident_* callback gauges on `registry`.
  void PublishMetrics(MetricsRegistry* registry);

 private:
  struct TriggerSource {
    const char* reason = "";
    std::function<uint64_t()> counter;
    uint64_t last_value = 0;
  };

  Incident Capture(const char* reason, uint64_t trigger_value,
                   const std::string& fingerprint) const;
  uint64_t Store(Incident incident) EXCLUDES(mutex_);
  void Spill(const Incident& incident) const;

  Options options_;
  const EventLog* eventlog_ = nullptr;
  const Tracer* tracer_ = nullptr;
  const MetricsRegistry* metrics_ = nullptr;
  const Profiler* profiler_ = nullptr;

  mutable common::Mutex mutex_;
  std::string config_fingerprint_ GUARDED_BY(mutex_);
  std::vector<TriggerSource> triggers_ GUARDED_BY(mutex_);
  std::deque<Incident> incidents_ GUARDED_BY(mutex_);
  uint64_t next_id_ GUARDED_BY(mutex_) = 1;
  /// When the last bundle was sealed; empty until the first seal, so
  /// the first trigger edge is never debounced, however recently the
  /// steady clock's epoch (boot, on Linux) lies.
  std::optional<uint64_t> last_seal_ns_ GUARDED_BY(mutex_);
  std::atomic<uint64_t> sealed_{0};
  std::atomic<uint64_t> debounced_{0};
  std::atomic<uint64_t> polls_{0};
};

}  // namespace shpir::obs

#endif  // SHPIR_OBS_FLIGHT_RECORDER_H_
