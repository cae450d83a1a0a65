#ifndef SHPIR_OBS_SPAN_H_
#define SHPIR_OBS_SPAN_H_

#include <array>
#include <chrono>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace shpir::obs {

/// Phases of one c-approximate PIR round, in protocol order (Fig. 3).
enum class Phase : uint8_t {
  kPageMapLookup = 0,  // Locating the request + pageMap updates.
  kBlockRead,          // Disk reads (k-page block + extra page).
  kDecrypt,            // OpenPages over the fetched pages.
  kCacheEvict,         // Uniformization + cache eviction swaps.
  kReencrypt,          // SealPages with fresh nonces.
  kWriteBack,          // Disk write-back of the k+1 pages.
};
inline constexpr int kNumPhases = 6;

const char* PhaseName(Phase phase);

/// Per-phase latency histograms a QueryTrace flushes into.
using PhaseHistograms = std::array<Histogram*, kNumPhases>;

/// Accumulates per-phase wall-clock nanoseconds for one query and
/// flushes one histogram sample per phase at destruction. Lives on the
/// stack: when constructed with a null histogram array (and no span
/// sink attached) the trace — and every Span opened on it — is a no-op
/// that never reads the clock and never allocates, which is what keeps
/// the disabled-tracing hot path at zero overhead and zero allocations.
///
/// With SetSpanSink() attached, each Span additionally emits one
/// distributed-tracing SpanRecord (obs/trace.h) per phase occurrence,
/// parented under the enclosing engine-round span — the histograms stay
/// aggregate while the sampled trace gets the per-occurrence timeline.
class QueryTrace {
 public:
  explicit QueryTrace(const PhaseHistograms* phases) : phases_(phases) {}

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  ~QueryTrace() {
    if (phases_ == nullptr) {
      return;
    }
    for (int i = 0; i < kNumPhases; ++i) {
      Histogram* histogram = (*phases_)[static_cast<size_t>(i)];
      if (histogram != nullptr) {
        histogram->Record(elapsed_ns_[static_cast<size_t>(i)]);
      }
    }
  }

  bool enabled() const {
    return phases_ != nullptr || tracer_ != nullptr || profiler_ != nullptr;
  }

  /// Routes each phase occurrence to `tracer` as a span under `parent`.
  /// Only call with an active (sampled) parent context.
  void SetSpanSink(Tracer* tracer, const TraceContext& parent,
                   int32_t shard) {
    tracer_ = tracer;
    parent_ = parent;
    shard_ = shard;
  }

  /// Routes each phase occurrence to `profiler` as a pushed/popped
  /// frame under the caller's current stack (the engine's
  /// "engine_round" root scope). Only call for head-sampled rounds.
  void SetProfileSink(Profiler* profiler) { profiler_ = profiler; }

  /// Span start: opens the phase frame on the profiler stack (no-op
  /// without a profile sink).
  void OnSpanBegin(Phase phase) {
    if (profiler_ != nullptr) {
      profiler_->Push(PhaseName(phase));
    }
  }

  /// Adds `ns` to the phase's running total; phases re-entered several
  /// times in a round (e.g. the two disk reads) aggregate into one
  /// sample.
  void Add(Phase phase, uint64_t ns) {
    elapsed_ns_[static_cast<size_t>(phase)] += ns;
  }

  /// Span completion: aggregates into the phase histogram and, with a
  /// sink attached, records one trace span for this occurrence.
  void OnSpanEnd(Phase phase, std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end) {
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    Add(phase, ns);
    if (tracer_ != nullptr) {
      SpanRecord record;
      record.trace_id = parent_.trace_id;
      record.span_id = tracer_->NewSpanId();
      record.parent_span_id = parent_.span_id;
      record.name = PhaseName(phase);
      record.start_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              start.time_since_epoch())
              .count());
      record.duration_ns = ns;
      record.shard = shard_;
      tracer_->Record(record);
    }
    if (profiler_ != nullptr) {
      profiler_->Pop();
    }
  }

 private:
  const PhaseHistograms* phases_;
  std::array<uint64_t, kNumPhases> elapsed_ns_{};
  Tracer* tracer_ = nullptr;
  TraceContext parent_;
  int32_t shard_ = -1;
  Profiler* profiler_ = nullptr;
};

/// RAII phase timer on a QueryTrace. Disabled traces make this a no-op.
class Span {
 public:
  Span(QueryTrace& trace, Phase phase)
      : trace_(trace.enabled() ? &trace : nullptr), phase_(phase) {
    if (trace_ != nullptr) {
      trace_->OnSpanBegin(phase_);
      start_ = std::chrono::steady_clock::now();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (trace_ != nullptr) {
      trace_->OnSpanEnd(phase_, start_, std::chrono::steady_clock::now());
    }
  }

 private:
  QueryTrace* trace_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII timer recording elapsed nanoseconds straight into a histogram
/// (or nothing when the histogram is null).
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

  ~ScopedLatencyTimer() {
    if (histogram_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      histogram_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace shpir::obs

#endif  // SHPIR_OBS_SPAN_H_
