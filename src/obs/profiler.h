#ifndef SHPIR_OBS_PROFILER_H_
#define SHPIR_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace shpir::obs {

class MetricsRegistry;

/// Sampling profiler with phase attribution: the third observability
/// leg next to metrics (aggregate distributions) and tracing (sampled
/// per-request timelines). It answers the ROADMAP question the other
/// two cannot — *where inside a query the cycles go* — by piggybacking
/// on the same RAII spans QueryTrace already times: a counter-sampled
/// round pushes an "engine_round" root frame and every phase Span
/// becomes a child frame, so the folded stacks read
/// `engine_round;reencrypt 123456` and load directly into any
/// flame-graph renderer.
///
/// Cost model: unsampled rounds pay one relaxed fetch_add (the head
/// sampling decision); sampled rounds additionally pay one counter
/// read per frame boundary. On Linux the reads come from a per-thread
/// `perf_event_open` group (CPU cycles + retired instructions, one
/// read(2) for both); where the syscall is unavailable (containers
/// with perf_event_paranoid, non-Linux) the profiler degrades to
/// steady-clock wall time only and reports `backend() ==
/// "steady_clock"`.
///
/// Trust boundary (same rule as metrics/tracing/privacy monitor):
/// frames are static string literals from a closed vocabulary, the
/// sampling decision is counter-based (target-independent), and the
/// Fig. 3 round executes the same span sequence for every request —
/// so the *shape* of a profile (stack set + sample counts) is
/// byte-identical whatever secret page was queried. tests/
/// profiler_test.cc asserts exactly that.
class Profiler {
 public:
  /// Frames deeper than this still pair push/pop correctly but are
  /// attributed to their deepest kept ancestor.
  static constexpr size_t kMaxDepth = 8;

  struct Options {
    /// Head sampling: every `sample_every`-th SampleQuery() returns
    /// true (counter-based, so exactly 1-in-N and target-independent).
    /// 1 samples everything; 0 samples nothing (profiler attached but
    /// disabled).
    uint64_t sample_every = 16;
    /// Try the perf_event_open backend first (Linux only). Tests that
    /// need deterministic "steady_clock" output set this to false.
    bool use_hw_counters = true;
  };

  explicit Profiler(const Options& options);
  Profiler() : Profiler(Options{}) {}
  ~Profiler() = default;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Head sampling decision, one per logical query. Counts every call
  /// in queries(); returns true for exactly 1-in-sample_every of them.
  bool SampleQuery();

  /// Opens a frame on the calling thread's stack. `frame` must be a
  /// string literal (static storage): aggregation keys on the pointer.
  /// Self-time since the previous boundary is attributed to the
  /// enclosing path. A thread profiles for one Profiler at a time;
  /// pushes for a second instance while a stack is open are dropped
  /// (and still pair with their pops).
  void Push(const char* frame);

  /// Closes the top frame, attributing its self-time and counting one
  /// completed sample for its path.
  void Pop();

  /// Folds an externally measured duration into the profile — used for
  /// time spent where no thread of ours runs, e.g. the dispatcher
  /// queue wait between submit and worker pickup. Wall time only (no
  /// cycle counters cross threads).
  void AddExternalSample(std::initializer_list<const char*> frames,
                         uint64_t wall_ns);

  /// One aggregated call path. `stack` is the semicolon-joined frame
  /// path ("engine_round;reencrypt"); `samples` counts completed
  /// occurrences; counters are totals attributed to the path's self
  /// time.
  struct StackSample {
    std::string stack;
    uint64_t samples = 0;
    uint64_t wall_ns = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
  };

  /// Aggregated paths sorted by stack name (deterministic order).
  std::vector<StackSample> Snapshot() const;

  /// Flame-graph-compatible collapsed output, one "path weight" line
  /// per stack, weighted by self wall-nanoseconds.
  std::string ToCollapsed() const;

  /// Timing-free view of the same stacks weighted by sample count.
  /// Because the Fig. 3 round is constant-shape, this string is
  /// byte-identical for any two query sequences of the same length,
  /// whatever their secret targets — the property the trust-boundary
  /// test pins down.
  std::string ToCollapsedShape() const;

  /// Closed-schema JSON dump (the "profile" admin document):
  /// backend + sampling config + the stack table.
  std::string ToJson() const;

  /// Registers shpir_profile_* callback gauges on `registry`. The
  /// profiler must outlive the registry's last Snapshot().
  void PublishMetrics(MetricsRegistry* registry);

  /// "perf_event" once any thread opened hardware counters,
  /// "steady_clock" after a failed attempt, "unattempted" before the
  /// first sampled frame.
  const char* backend() const;

  /// Logical queries observed (every SampleQuery() call).
  uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
  /// Queries that were sampled.
  uint64_t sampled() const {
    return sampled_.load(std::memory_order_relaxed);
  }
  /// Frames pushed beyond kMaxDepth (attributed to their deepest kept
  /// ancestor rather than recorded at their own depth).
  uint64_t frames_dropped() const {
    return frames_dropped_.load(std::memory_order_relaxed);
  }

  /// Discards aggregated stacks (counters are kept).
  void Clear();

  const Options& options() const { return options_; }

 private:
  struct PathKey {
    std::array<const char*, kMaxDepth> frames{};
    size_t depth = 0;

    bool operator<(const PathKey& other) const {
      if (depth != other.depth) {
        return depth < other.depth;
      }
      for (size_t i = 0; i < depth; ++i) {
        if (frames[i] != other.frames[i]) {
          return std::less<const char*>()(frames[i], other.frames[i]);
        }
      }
      return false;
    }
  };

  struct PathTotals {
    uint64_t samples = 0;
    uint64_t wall_ns = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
  };

  void Attribute(const PathKey& key, uint64_t wall_ns, uint64_t cycles,
                 uint64_t instructions, uint64_t samples);

  Options options_;
  std::atomic<uint64_t> sample_counter_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> sampled_{0};
  std::atomic<uint64_t> frames_dropped_{0};
  // 0 = unattempted, 1 = hardware, 2 = steady-clock fallback.
  std::atomic<int> backend_state_{0};

  mutable common::Mutex mutex_;
  std::map<PathKey, PathTotals> paths_ GUARDED_BY(mutex_);
};

/// RAII root frame: pushes `frame` when `profiler` is non-null (pass
/// null for unsampled rounds so the scope is a strict no-op).
class ProfileScope {
 public:
  ProfileScope(Profiler* profiler, const char* frame)
      : profiler_(profiler) {
    if (profiler_ != nullptr) {
      profiler_->Push(frame);
    }
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  ~ProfileScope() {
    if (profiler_ != nullptr) {
      profiler_->Pop();
    }
  }

  bool active() const { return profiler_ != nullptr; }

 private:
  Profiler* profiler_;
};

}  // namespace shpir::obs

#endif  // SHPIR_OBS_PROFILER_H_
