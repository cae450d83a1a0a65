#ifndef SHPIR_OBS_METRICS_H_
#define SHPIR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace shpir::obs {

/// Monotonic event counter. Increment is a single relaxed atomic add, so
/// instrumented hot paths pay a few nanoseconds and never block.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// Last-value gauge (double). Stored as bit-cast uint64 so Set/Value work
/// on any platform without atomic<double> arithmetic support.
class Gauge {
 public:
  void Set(double value) {
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
  }
  void Add(double delta) {
    uint64_t observed = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        observed, std::bit_cast<uint64_t>(std::bit_cast<double>(observed) + delta),
        std::memory_order_relaxed)) {
    }
  }
  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<uint64_t> bits_{0};  // bit_cast of 0.0.
};

/// Fixed-footprint log-linear histogram over uint64 values (HdrHistogram
/// style): values below 16 get exact buckets; every power-of-two octave
/// above is split into 4 sub-buckets, so any estimate is within 25% of
/// the recorded value. Record() is a handful of relaxed atomic ops — no
/// allocation, no locks — which is what lets it sit on the query hot
/// path.
class Histogram {
 public:
  static constexpr int kLinearBuckets = 16;
  static constexpr int kSubBuckets = 4;
  static constexpr int kNumBuckets =
      kLinearBuckets + (64 - 4) * kSubBuckets;  // 256.
  /// Exemplar slots, one per quarter of the bucket range, so both
  /// typical and outlier observations keep a representative.
  static constexpr int kExemplarSlots = 4;

  void Record(uint64_t value);

  /// Record() plus exemplar retention: remembers (value, trace_id) in
  /// the slot covering the value's bucket zone, overwriting the slot's
  /// previous exemplar. Call only for traced observations — trace ids
  /// are public (they name sampled spans), and the slot update takes a
  /// mutex the plain Record() path never touches.
  void RecordWithExemplar(uint64_t value, uint64_t trace_id);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of recorded values (saturating at 2^64 like any counter).
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Min() const;  // 0 when empty.
  uint64_t Max() const;  // 0 when empty.

  /// Estimated q-quantile (q in [0,1]): the midpoint of the bucket
  /// holding the rank-q value, clamped to [Min, Max]. Within one bucket
  /// (<= 25% relative error) of the exact order statistic.
  double Quantile(double q) const;

  /// Bucket geometry, exposed for tests.
  static int BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(int index);
  static uint64_t BucketUpperBound(int index);

 private:
  friend class MetricsRegistry;
  Histogram() = default;

  struct ExemplarSlot {
    uint64_t value = 0;
    uint64_t trace_id = 0;
    uint64_t ts_ns = 0;
    bool used = false;
  };

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  mutable common::Mutex exemplar_mutex_;
  std::array<ExemplarSlot, kExemplarSlots> exemplar_slots_
      GUARDED_BY(exemplar_mutex_);
};

/// One exported counter/gauge/histogram, aggregate-only by construction:
/// the snapshot model has no labels, so per-request values (page ids,
/// request indices, client ids) cannot be attached to a metric even by
/// accident. This is the mechanism behind the trust-boundary rule in
/// docs/OBSERVABILITY.md.
struct SnapshotCounter {
  std::string name;
  uint64_t value = 0;
};

struct SnapshotGauge {
  std::string name;
  double value = 0;
};

/// One retained observation with the public trace id that produced it
/// — the handle that closes the metric → trace loop
/// (`shpir_stats trace <trace-id>`). Values are aggregates and
/// trace ids name sampled spans; nothing here is per-request secret
/// state.
struct SnapshotExemplar {
  uint64_t value = 0;
  uint64_t trace_id = 0;
  uint64_t ts_ns = 0;
};

struct SnapshotHistogram {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  std::vector<SnapshotExemplar> exemplars;  // Ascending by value.
};

/// A constant "info" metric: a value-1 gauge whose labels carry
/// build/deploy identity (version, git sha, compiler). Label values
/// are free-form strings, so exporters must escape them.
struct SnapshotInfo {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
};

struct MetricsSnapshot {
  std::vector<SnapshotCounter> counters;
  std::vector<SnapshotGauge> gauges;
  std::vector<SnapshotHistogram> histograms;
  std::vector<SnapshotInfo> infos;
};

/// Thread-safe registry of named instruments. Lookups (FindOrCreate*)
/// take a mutex and should happen once at attach time; the returned
/// pointers are stable for the registry's lifetime and are lock-free to
/// update. Metric names must match [a-z][a-z0-9_]* and must not carry
/// per-request identifier names (see IsValidName) — the registry aborts
/// on violation, because a bad name is a programming error that could
/// widen the side channel the c-approximate guarantee bounds.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide default registry (what the CLI tools export).
  static MetricsRegistry& Global();

  Counter* FindOrCreateCounter(std::string_view name);
  Gauge* FindOrCreateGauge(std::string_view name);
  Histogram* FindOrCreateHistogram(std::string_view name);

  /// Registers a gauge whose value is computed at snapshot time. The
  /// callback must stay valid for the registry's lifetime and must be
  /// safe to call from the snapshotting thread.
  void RegisterCallbackGauge(std::string_view name,
                             std::function<double()> callback);

  /// Registers a constant info metric (value-1 gauge with identity
  /// labels, e.g. shpir_build_info). Name and label keys must pass
  /// IsValidName; label values are arbitrary but must be build/deploy
  /// constants, never per-request state. Re-registering a name
  /// replaces its labels.
  void RegisterInfo(std::string_view name,
                    std::vector<std::pair<std::string, std::string>> labels);

  /// Consistent-enough point-in-time copy of every instrument, sorted by
  /// name. Counters/histograms are read with relaxed atomics; callback
  /// gauges are evaluated inline.
  MetricsSnapshot Snapshot() const;

  /// True for names matching [a-z][a-z0-9_]* that do not embed
  /// per-request identifier vocabulary ("page_id", "request_index",
  /// "client_id").
  static bool IsValidName(std::string_view name);

 private:
  mutable common::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mutex_);
  std::map<std::string, std::function<double()>, std::less<>> callback_gauges_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mutex_);
  std::map<std::string, std::vector<std::pair<std::string, std::string>>,
           std::less<>>
      infos_ GUARDED_BY(mutex_);
};

}  // namespace shpir::obs

#endif  // SHPIR_OBS_METRICS_H_
