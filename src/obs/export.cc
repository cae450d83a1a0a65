#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace shpir::obs {

namespace {

// Shortest round-tripping representation of a double.
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer a shorter form when it round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) {
      return shorter;
    }
  }
  return buf;
}

std::string TraceIdHex(uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

}  // namespace

std::string EscapeJsonString(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string EscapePrometheusLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const SnapshotCounter& counter : snapshot.counters) {
    out << "# TYPE " << counter.name << " counter\n";
    out << counter.name << " " << counter.value << "\n";
  }
  for (const SnapshotGauge& gauge : snapshot.gauges) {
    out << "# TYPE " << gauge.name << " gauge\n";
    out << gauge.name << " " << FormatDouble(gauge.value) << "\n";
  }
  for (const SnapshotInfo& info : snapshot.infos) {
    out << "# TYPE " << info.name << " gauge\n";
    out << info.name << "{";
    bool first = true;
    for (const auto& [key, value] : info.labels) {
      if (!first) {
        out << ",";
      }
      first = false;
      out << key << "=\"" << EscapePrometheusLabelValue(value) << "\"";
    }
    out << "} 1\n";
  }
  for (const SnapshotHistogram& histogram : snapshot.histograms) {
    out << "# TYPE " << histogram.name << " summary\n";
    out << histogram.name << "{quantile=\"0.5\"} "
        << FormatDouble(histogram.p50) << "\n";
    out << histogram.name << "{quantile=\"0.95\"} "
        << FormatDouble(histogram.p95) << "\n";
    out << histogram.name << "{quantile=\"0.99\"} "
        << FormatDouble(histogram.p99) << "\n";
    out << histogram.name << "_sum " << histogram.sum << "\n";
    out << histogram.name << "_count " << histogram.count;
    if (!histogram.exemplars.empty()) {
      // OpenMetrics exemplar syntax on the count sample; the
      // highest-value (outlier) exemplar is the interesting one.
      const SnapshotExemplar& exemplar = histogram.exemplars.back();
      char ts[32];
      std::snprintf(ts, sizeof(ts), "%.3f",
                    static_cast<double>(exemplar.ts_ns) / 1e9);
      out << " # {trace_id=\"" << TraceIdHex(exemplar.trace_id) << "\"} "
          << exemplar.value << " " << ts;
    }
    out << "\n";
  }
  return out.str();
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"counters\":[";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << "{\"name\":\"" << EscapeJsonString(snapshot.counters[i].name)
        << "\",\"value\":" << snapshot.counters[i].value << "}";
  }
  out << "],\"gauges\":[";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << "{\"name\":\"" << EscapeJsonString(snapshot.gauges[i].name)
        << "\",\"value\":" << FormatDouble(snapshot.gauges[i].value) << "}";
  }
  out << "],\"histograms\":[";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const SnapshotHistogram& h = snapshot.histograms[i];
    if (i > 0) {
      out << ",";
    }
    out << "{\"name\":\"" << EscapeJsonString(h.name)
        << "\",\"count\":" << h.count
        << ",\"sum\":" << h.sum << ",\"min\":" << h.min << ",\"max\":"
        << h.max << ",\"p50\":" << FormatDouble(h.p50) << ",\"p95\":"
        << FormatDouble(h.p95) << ",\"p99\":" << FormatDouble(h.p99);
    if (!h.exemplars.empty()) {
      out << ",\"exemplars\":[";
      for (size_t j = 0; j < h.exemplars.size(); ++j) {
        if (j > 0) {
          out << ",";
        }
        out << "{\"value\":" << h.exemplars[j].value << ",\"trace_id\":\""
            << TraceIdHex(h.exemplars[j].trace_id)
            << "\",\"ts_ns\":" << h.exemplars[j].ts_ns << "}";
      }
      out << "]";
    }
    out << "}";
  }
  out << "]";
  if (!snapshot.infos.empty()) {
    out << ",\"infos\":[";
    for (size_t i = 0; i < snapshot.infos.size(); ++i) {
      const SnapshotInfo& info = snapshot.infos[i];
      if (i > 0) {
        out << ",";
      }
      out << "{\"name\":\"" << EscapeJsonString(info.name)
          << "\",\"labels\":{";
      for (size_t j = 0; j < info.labels.size(); ++j) {
        if (j > 0) {
          out << ",";
        }
        out << "\"" << EscapeJsonString(info.labels[j].first) << "\":\""
            << EscapeJsonString(info.labels[j].second) << "\"";
      }
      out << "}}";
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

std::string RenderTable(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  if (!snapshot.counters.empty()) {
    out << "counters:\n";
    for (const SnapshotCounter& counter : snapshot.counters) {
      char line[192];
      std::snprintf(line, sizeof(line), "  %-48s %" PRIu64 "\n",
                    counter.name.c_str(), counter.value);
      out << line;
    }
  }
  if (!snapshot.gauges.empty()) {
    out << "gauges:\n";
    for (const SnapshotGauge& gauge : snapshot.gauges) {
      char line[192];
      std::snprintf(line, sizeof(line), "  %-48s %s\n", gauge.name.c_str(),
                    FormatDouble(gauge.value).c_str());
      out << line;
    }
  }
  if (!snapshot.histograms.empty()) {
    out << "histograms:\n";
    for (const SnapshotHistogram& h : snapshot.histograms) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-48s count=%" PRIu64 " p50=%.0f p95=%.0f p99=%.0f"
                    " min=%" PRIu64 " max=%" PRIu64 "\n",
                    h.name.c_str(), h.count, h.p50, h.p95, h.p99, h.min,
                    h.max);
      out << line;
    }
  }
  if (out.str().empty()) {
    return "(no metrics)\n";
  }
  return out.str();
}

}  // namespace shpir::obs
