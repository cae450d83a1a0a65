#ifndef SHPIR_OBS_EXPORT_H_
#define SHPIR_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace shpir::obs {

/// Prometheus text exposition (version 0.0.4): counters and gauges as
/// single samples, histograms as summaries with precomputed quantiles.
/// Info metrics render as value-1 gauges with escaped label values;
/// histogram exemplars append OpenMetrics exemplar syntax
/// (` # {trace_id="<16-hex>"} <value> <ts-seconds>`) to the _count
/// sample.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// Compact JSON snapshot — the "stats" admin document:
///   {"counters":[{"name":...,"value":...}],
///    "gauges":[...],
///    "histograms":[{"name":...,"count":...,"sum":...,"min":...,
///                   "max":...,"p50":...,"p95":...,"p99":...,
///                   "exemplars":[{"value":...,"trace_id":"<16-hex>",
///                                 "ts_ns":...}]}],   // when non-empty
///    "infos":[{"name":...,"labels":{...}}]}          // when non-empty
std::string ToJson(const MetricsSnapshot& snapshot);

/// Escapes `value` for embedding inside a JSON string literal: quotes,
/// backslashes, and control characters become their escape sequences.
/// Registry names are already [a-z0-9_]-restricted, but values that
/// originate elsewhere (trace span names) must not be able to break
/// the produced JSON.
std::string EscapeJsonString(std::string_view value);

/// Escapes `value` for a Prometheus/OpenMetrics label value position:
/// backslash, double quote, and newline become \\, \", and \n (the
/// full escape set the exposition formats define). Needed for info
/// metric labels (compiler strings, build flags) and exemplar labels.
std::string EscapePrometheusLabelValue(std::string_view value);

/// Human-readable table; the body of the "stats table" admin document.
std::string RenderTable(const MetricsSnapshot& snapshot);

}  // namespace shpir::obs

#endif  // SHPIR_OBS_EXPORT_H_
