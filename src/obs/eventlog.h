#ifndef SHPIR_OBS_EVENTLOG_H_
#define SHPIR_OBS_EVENTLOG_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/secret.h"

namespace shpir::obs {

class MetricsRegistry;

/// Leveled, structured, secret-safe event log — the fourth
/// observability pillar next to metrics (aggregate distributions),
/// tracing (sampled timelines) and profiling (where the cycles go).
/// Events answer "what happened, in order": a shard drained, an SLO
/// rule fired, the privacy monitor counted a breach, an admission
/// decision rejected a query.
///
/// Trust boundary (same rule as every other pillar): event names and
/// field names are static string literals from a closed vocabulary,
/// and field VALUES are numeric aggregates only. A
/// `common::Secret<T>` cannot be used as a field value — the
/// EventField constructor rejects it at compile time — and an exposed
/// secret flowing into Emit() is flagged by shpir_lint's secret-log
/// rule (Emit is a registered sink). Cover and real queries must emit
/// identical event shapes; tests/incident_shape_test.cc pins that
/// down with the paired-rig methodology.

enum class EventLevel : uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

constexpr int kNumEventLevels = 4;

/// Lowercase level name ("debug", "info", "warn", "error").
const char* EventLevelName(EventLevel level);

namespace internal {
template <typename T>
struct IsSecretType : std::false_type {};
template <typename T>
struct IsSecretType<common::Secret<T>> : std::true_type {};
}  // namespace internal

/// One key/value field. The name must be a string literal (static
/// storage — records outlive the emitting scope); the value must be a
/// plain arithmetic type. Passing a common::Secret<T> is a compile
/// error by design: secrets do not get a logging accessor, and the
/// only escape hatch (ExposeSecret) leaves a taint shpir_lint tracks
/// into this constructor.
struct EventField {
  const char* name = "";
  double value = 0;

  EventField() = default;

  template <typename T>
  EventField(const char* field_name, T field_value) : name(field_name) {
    static_assert(!internal::IsSecretType<std::decay_t<T>>::value,
                  "common::Secret<T> must never be logged as an event "
                  "field; see docs/OBSERVABILITY.md");
    static_assert(std::is_arithmetic_v<std::decay_t<T>>,
                  "event field values must be numeric aggregates "
                  "(no strings, no pointers)");
    value = static_cast<double>(field_value);
  }
};

/// One recorded event. Fixed footprint (no allocation) so the ring
/// write is a memcpy-sized critical section.
struct EventRecord {
  static constexpr size_t kMaxFields = 4;

  uint64_t seq = 0;         // Global emission order.
  uint64_t ts_ns = 0;       // steady_clock, process-local epoch.
  EventLevel level = EventLevel::kInfo;
  const char* name = "";    // Static string literal.
  int32_t shard = -1;       // -1 when not shard-specific.
  uint64_t trace_id = 0;    // 0 when not correlated with a trace.
  std::array<EventField, kMaxFields> fields{};
  size_t num_fields = 0;
};

/// Bounded, lock-sharded event collector. Emit() from S shard workers
/// does not serialize on one mutex; when a lane wraps, the oldest
/// event is overwritten and counted in dropped(). Per-level token
/// buckets (steady-clock seconds) bound the emit rate under overload;
/// over-budget events are counted in rate_limited() and discarded —
/// the counters themselves are the back-pressure signal.
class EventLog {
 public:
  struct Options {
    /// Events below this level are counted in filtered() and dropped
    /// before any lock or clock read — the "attached but quiet" mode
    /// bench_eventlog prices as the disabled configuration.
    EventLevel min_level = EventLevel::kInfo;
    /// Total event capacity across all lanes.
    size_t capacity = 1024;
    /// Number of independently locked ring lanes.
    size_t lanes = 4;
    /// Per-level emit budget per steady-clock second; 0 = unlimited.
    /// Indexed by EventLevel.
    std::array<uint64_t, kNumEventLevels> max_per_sec = {0, 0, 0, 0};
  };

  explicit EventLog(const Options& options);
  EventLog() : EventLog(Options{}) {}

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Records one event. `name` and every field name must be string
  /// literals; field values must be public aggregates (never a page
  /// id, request index, or anything derived from one).
  void Emit(EventLevel level, const char* name,
            std::initializer_list<EventField> fields = {}) {
    Emit(level, name, /*shard=*/-1, /*trace_id=*/0, fields);
  }

  /// Shard- and trace-correlated form. `trace_id` is the public
  /// sampled-trace id (0 when untraced).
  void Emit(EventLevel level, const char* name, int32_t shard,
            uint64_t trace_id, std::initializer_list<EventField> fields = {});

  /// Copies the buffered events in emission (seq) order.
  std::vector<EventRecord> Snapshot() const;

  /// Discards buffered events (counters are kept).
  void Clear();

  /// Emit() calls observed (including filtered and rate-limited ones).
  uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  /// Events actually written to a ring lane.
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  /// Events overwritten by ring wraparound.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Events discarded by a per-level token bucket.
  uint64_t rate_limited() const {
    return rate_limited_.load(std::memory_order_relaxed);
  }
  /// Events below min_level.
  uint64_t filtered() const {
    return filtered_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

  /// Registers shpir_eventlog_* callback gauges on `registry`
  /// (including shpir_eventlog_dropped_total). The log must outlive
  /// the registry's last Snapshot().
  void PublishMetrics(MetricsRegistry* registry);

 private:
  struct Lane {
    mutable common::Mutex mutex;
    std::vector<EventRecord> ring GUARDED_BY(mutex);  // Fixed capacity.
    size_t next GUARDED_BY(mutex) = 0;
    size_t count GUARDED_BY(mutex) = 0;
  };

  struct RateBucket {
    uint64_t window_start_ns = 0;
    uint64_t count = 0;
  };

  Options options_;
  size_t lane_capacity_;
  std::vector<Lane> lanes_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> rate_limited_{0};
  std::atomic<uint64_t> filtered_{0};
  mutable common::Mutex rate_mutex_;
  std::array<RateBucket, kNumEventLevels> rate_ GUARDED_BY(rate_mutex_);
};

/// Closed-schema JSON of the "events" admin document:
///   {"emitted":...,"recorded":...,"dropped":...,"rate_limited":...,
///    "filtered":...,"events":[{"seq":...,"ts_ns":...,"level":"info",
///    "name":"...","shard":...,"trace_id":"0016-hex","fields":{...}}]}
std::string EventLogJson(const EventLog& log);

/// Secret-independence digest: one "level:name:shard:field,field"
/// line per event, sorted (thread interleaving is timing, not
/// secret-dependent, so sorting makes the digest deterministic). No
/// values, timestamps, seqs or trace ids — two runs over different
/// secret targets must produce byte-identical shapes.
std::string EventShape(const std::vector<EventRecord>& events);

}  // namespace shpir::obs

#endif  // SHPIR_OBS_EVENTLOG_H_
