#include "obs/admin.h"

#include <charconv>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace shpir::obs {

namespace {

/// A trace id as shown in span args and exemplars: 1-16 hex digits,
/// either case, with an optional 0x prefix. Zero is "no trace".
Result<uint64_t> ParseTraceId(std::string_view text) {
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
  }
  uint64_t id = 0;
  if (text.size() > 16 || !ParseAdminNumber(text, &id, 16) || id == 0) {
    return InvalidArgumentError("trace id must be 1-16 hex digits");
  }
  return id;
}

/// The "stats table" view: the build identity, so an operator knows
/// which binary produced the numbers, then the metrics table.
std::string StatsTable(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const SnapshotInfo& info : snapshot.infos) {
    if (info.name != "shpir_build_info") {
      continue;
    }
    out += "build:";
    for (const auto& [key, value] : info.labels) {
      out += " " + key + "=" + value;
    }
    out += "\n";
  }
  return out + RenderTable(snapshot);
}

}  // namespace

bool ParseAdminNumber(std::string_view text, uint64_t* value, int base) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value, base);
  return !text.empty() && ec == std::errc() && ptr == end;
}

void AdminRegistry::Add(std::string name,
                        std::function<std::string()> render) {
  SHPIR_CHECK(render);
  Entry entry;
  entry.handler = [render = std::move(render)](std::string_view) {
    return Result<std::string>(render());
  };
  SHPIR_CHECK(entries_.emplace(std::move(name), std::move(entry)).second);
}

void AdminRegistry::AddWithArg(std::string name, Handler handler) {
  SHPIR_CHECK(handler);
  Entry entry;
  entry.takes_arg = true;
  entry.handler = std::move(handler);
  SHPIR_CHECK(entries_.emplace(std::move(name), std::move(entry)).second);
}

Result<std::string> AdminRegistry::Render(std::string_view name,
                                          std::string_view arg) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return NotFoundError("no admin document '" + std::string(name) +
                         "' on this endpoint");
  }
  if (!arg.empty() && !it->second.takes_arg) {
    return InvalidArgumentError("admin document '" + std::string(name) +
                                "' takes no argument");
  }
  return it->second.handler(arg);
}

void RegisterStandardDocuments(const AdminSources& sources,
                               AdminRegistry* registry) {
  if (const MetricsRegistry* metrics = sources.metrics) {
    registry->AddWithArg(
        "stats", [metrics](std::string_view arg) -> Result<std::string> {
          if (arg.empty() || arg == "json") {
            return ToJson(metrics->Snapshot());
          }
          if (arg == "table") {
            return StatsTable(metrics->Snapshot());
          }
          if (arg == "prometheus") {
            return ToPrometheusText(metrics->Snapshot());
          }
          return InvalidArgumentError("stats format must be json, table or "
                                      "prometheus");
        });
  }
  if (const Tracer* tracer = sources.tracer) {
    registry->AddWithArg(
        "trace", [tracer](std::string_view arg) -> Result<std::string> {
          std::vector<SpanRecord> spans = tracer->Snapshot();
          if (!arg.empty()) {
            SHPIR_ASSIGN_OR_RETURN(const uint64_t id, ParseTraceId(arg));
            std::erase_if(spans, [id](const SpanRecord& span) {
              return span.trace_id != id;
            });
          }
          return ToChromeTraceJson(spans);
        });
  }
  if (const Profiler* profiler = sources.profiler) {
    registry->AddWithArg(
        "profile", [profiler](std::string_view arg) -> Result<std::string> {
          if (arg.empty() || arg == "json") {
            return profiler->ToJson();
          }
          if (arg == "collapsed") {
            return profiler->ToCollapsed();
          }
          return InvalidArgumentError("profile format must be json or "
                                      "collapsed");
        });
  }
  if (sources.slo) {
    registry->Add("slo", sources.slo);
  }
  if (const EventLog* eventlog = sources.eventlog) {
    registry->Add("events", [eventlog] { return EventLogJson(*eventlog); });
  }
  if (FlightRecorder* recorder = sources.recorder) {
    registry->AddWithArg(
        "incidents", [recorder](std::string_view arg) -> Result<std::string> {
          uint64_t id = 0;
          if (!arg.empty() && !ParseAdminNumber(arg, &id)) {
            return InvalidArgumentError("incident id must be decimal");
          }
          // Catch up on trigger edges before answering, so a dump taken
          // right after a breach sees its bundle.
          recorder->Poll();
          if (arg.empty()) {
            return recorder->ListJson();
          }
          std::string bundle = recorder->ShowJson(id);
          if (bundle.empty()) {
            return NotFoundError("no such incident in the store");
          }
          return bundle;
        });
  }
  if (sources.health) {
    registry->Add("health", sources.health);
  }
}

}  // namespace shpir::obs
