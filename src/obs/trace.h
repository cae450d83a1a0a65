#ifndef SHPIR_OBS_TRACE_H_
#define SHPIR_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/result.h"

namespace shpir::obs {

class MetricsRegistry;

/// Distributed request tracing for the sharded serving pipeline: one
/// logical query produces a tree of spans — client encode, hub
/// queue-wait, per-shard fan-out (real and cover queries are
/// deliberately indistinguishable), coprocessor phases and disk I/O —
/// stitched together by a 64-bit trace id that rides the wire protocols
/// (net::Op::kTraced, the kOpTraced service record) next to the sealed
/// payload.
///
/// Trust boundary: spans carry ONLY public data — a static phase name,
/// a shard index and wall-clock timing. No page ids, no request
/// indices, no real-vs-cover flag (which cover query is the real one
/// would reveal the owning shard and thereby bits of the page id). The
/// same whole-round timing is already conceded to the network adversary
/// by Eq. 8's constant per-query cost; see docs/OBSERVABILITY.md.

/// Propagated context: which trace a unit of work belongs to and which
/// span is its parent. `trace_id == 0` means "no trace"; only sampled
/// contexts cause any recording or wire overhead.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool sampled = false;

  /// Wire encoding: trace_id(8) | span_id(8) | flags(1), little-endian;
  /// flag bit 0 = sampled, all other bits must be zero.
  static constexpr size_t kWireSize = 8 + 8 + 1;

  bool valid() const { return trace_id != 0; }
  /// True when downstream components should record spans for this work.
  bool active() const { return trace_id != 0 && sampled; }

  /// Appends the kWireSize-byte encoding to `out`.
  void EncodeTo(Bytes& out) const;
  Bytes Encode() const;

  /// Parses a context from the first kWireSize bytes of `bytes`.
  /// Rejects truncated input, a zero trace id, and unknown flag bits —
  /// frames are hostile until proven otherwise.
  static Result<TraceContext> Decode(ByteSpan bytes);
};

/// One finished span. `name` must be a string literal (static storage):
/// records are moved around buffers long after the emitting scope died.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 for a root span.
  const char* name = "";
  uint64_t start_ns = 0;     // steady_clock, process-local epoch.
  uint64_t duration_ns = 0;
  int32_t shard = -1;        // -1 when not shard-specific.
};

/// Span collector: deterministic id generation, head-based sampling
/// (the decision is made once per logical query and inherited by every
/// child span), and a lock-sharded bounded ring buffer so recording
/// from S shard workers does not serialize on one mutex. When the
/// buffer wraps, the oldest spans in that lane are overwritten and
/// counted in dropped().
class Tracer {
 public:
  struct Options {
    /// Head sampling: every `sample_every`-th StartTrace() is sampled
    /// (counter-based, so exactly 1-in-N and reproducible). 1 samples
    /// everything; 0 samples nothing (tracing attached but disabled).
    uint64_t sample_every = 64;
    /// Total span capacity across all buffer lanes.
    size_t buffer_capacity = 4096;
    /// Number of independently locked buffer lanes.
    size_t buffer_lanes = 8;
    /// Seed for the id generator; 0 derives one from the clock. Ids are
    /// NOT secrets (they name public spans) so a deterministic splitmix
    /// stream is fine — and required for reproducible tests.
    uint64_t seed = 0;
    /// Rate limit on sampled traces (token bucket, per steady-clock
    /// second); 0 = unlimited. Protects the buffer from a burst of
    /// sampled roots under overload.
    uint64_t max_sampled_per_sec = 0;
  };

  explicit Tracer(const Options& options);
  Tracer() : Tracer(Options{}) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Begins a new trace: fresh trace id, a root span id, and the head
  /// sampling decision for the whole tree.
  TraceContext StartTrace();

  /// Allocates a span id (for callers assembling SpanRecords manually,
  /// e.g. retroactive queue-wait spans).
  uint64_t NewSpanId();

  /// Appends one finished span to the buffer. Unsampled contexts must
  /// be filtered by the caller (TraceSpan does).
  void Record(const SpanRecord& record);

  /// Copies the buffered spans, ordered by start time.
  std::vector<SpanRecord> Snapshot() const;

  /// Discards all buffered spans (counters are kept).
  void Clear();

  uint64_t started() const { return started_.load(std::memory_order_relaxed); }
  uint64_t sampled() const { return sampled_.load(std::memory_order_relaxed); }
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  /// Spans overwritten by ring wraparound.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  const Options& options() const { return options_; }

  /// Registers shpir_trace_* callback gauges on `registry`, including
  /// shpir_trace_spans_dropped_total (ring overwrites) so span loss is
  /// observable without a trace dump. The tracer must outlive the
  /// registry's last Snapshot().
  void PublishMetrics(MetricsRegistry* registry);

  /// Nanoseconds on the steady clock — the time base of every span.
  static uint64_t NowNs();

 private:
  struct Lane {
    mutable common::Mutex mutex;
    std::vector<SpanRecord> ring GUARDED_BY(mutex);  // Fixed capacity.
    size_t next GUARDED_BY(mutex) = 0;
    size_t count GUARDED_BY(mutex) = 0;
  };

  Options options_;
  size_t lane_capacity_;
  std::vector<Lane> lanes_;
  std::atomic<uint64_t> id_state_;
  std::atomic<uint64_t> sample_counter_{0};
  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> sampled_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable common::Mutex rate_mutex_;
  uint64_t rate_window_start_ns_ GUARDED_BY(rate_mutex_) = 0;
  uint64_t rate_window_count_ GUARDED_BY(rate_mutex_) = 0;
};

/// RAII span. Two forms:
///  - root: starts a new trace (and makes the sampling decision);
///  - child: continues `parent`, a no-op unless the parent is active.
/// The span is recorded at destruction; context() is what children and
/// wire propagation should carry.
class TraceSpan {
 public:
  /// Root span: begins a new trace on `tracer` (null tracer = no-op).
  TraceSpan(Tracer* tracer, const char* name, int32_t shard = -1)
      : tracer_(tracer), name_(name), shard_(shard) {
    if (tracer_ == nullptr) {
      return;
    }
    ctx_ = tracer_->StartTrace();
    if (!ctx_.active()) {
      tracer_ = nullptr;  // Unsampled: children see an inactive context.
      return;
    }
    start_ns_ = Tracer::NowNs();
  }

  /// Child span under `parent`; inert when the parent is not active.
  TraceSpan(Tracer* tracer, const TraceContext& parent, const char* name,
            int32_t shard = -1)
      : name_(name), shard_(shard) {
    if (tracer == nullptr || !parent.active()) {
      return;
    }
    tracer_ = tracer;
    ctx_.trace_id = parent.trace_id;
    ctx_.span_id = tracer->NewSpanId();
    ctx_.sampled = true;
    parent_span_id_ = parent.span_id;
    start_ns_ = Tracer::NowNs();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (tracer_ == nullptr) {
      return;
    }
    SpanRecord record;
    record.trace_id = ctx_.trace_id;
    record.span_id = ctx_.span_id;
    record.parent_span_id = parent_span_id_;
    record.name = name_;
    record.start_ns = start_ns_;
    const uint64_t now = Tracer::NowNs();
    record.duration_ns = now > start_ns_ ? now - start_ns_ : 0;
    record.shard = shard_;
    tracer_->Record(record);
  }

  /// Context for children of this span (inactive when unsampled).
  const TraceContext& context() const { return ctx_; }

 private:
  Tracer* tracer_ = nullptr;
  TraceContext ctx_;
  uint64_t parent_span_id_ = 0;
  const char* name_;
  int32_t shard_;
  uint64_t start_ns_ = 0;
};

/// Renders spans as Chrome trace-event JSON ("traceEvents" array of
/// ph:"X" complete events, microsecond timestamps) — loadable directly
/// in Perfetto / chrome://tracing. Shards map to tids so the fan-out
/// reads as parallel tracks.
std::string ToChromeTraceJson(const std::vector<SpanRecord>& spans);

}  // namespace shpir::obs

#endif  // SHPIR_OBS_TRACE_H_
