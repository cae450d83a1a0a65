#ifndef SHPIR_OBS_ADMIN_H_
#define SHPIR_OBS_ADMIN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"

namespace shpir::obs {

class EventLog;
class FlightRecorder;
class MetricsRegistry;
class Profiler;
class Tracer;

/// The admin surface of one endpoint: a map from a document name
/// ("stats", "trace", "control", ...) to the function that renders it.
/// Both wire protocols serve it through one ADMIN op (net/wire.h), and
/// shpir_stats is its one CLI.
///
/// Build the registry completely before serving and hand the servers a
/// const pointer: lookups then need no lock. Handlers run on serving
/// threads, so each must be thread-safe, and each must return only
/// aggregate, target-independent data (docs/OBSERVABILITY.md).
class AdminRegistry {
 public:
  /// Renders a document that takes an argument; `arg` is the request's
  /// short argument text, empty when none was sent. A handler parses
  /// the whole argument before it changes any state, and rejects a
  /// malformed one with InvalidArgument.
  using Handler = std::function<Result<std::string>(std::string_view arg)>;

  /// Registers a document that takes no argument; a request that sends
  /// one is rejected before `render` runs.
  void Add(std::string name, std::function<std::string()> render);

  /// Registers a document whose handler parses its own argument.
  void AddWithArg(std::string name, Handler handler);

  /// Renders document `name`. An unknown name answers NotFound.
  Result<std::string> Render(std::string_view name,
                             std::string_view arg) const;

 private:
  struct Entry {
    bool takes_arg = false;
    Handler handler;
  };
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Parses all of `text` as an unsigned number in `base`, the strict
/// parse document handlers apply to numeric arguments: no sign, no
/// spaces, no trailing bytes, no overflow.
bool ParseAdminNumber(std::string_view text, uint64_t* value,
                      int base = 10);

/// The observability objects a process may have, each optional. A
/// standard document is registered only when its source is present.
struct AdminSources {
  const MetricsRegistry* metrics = nullptr;  // "stats [json|table|prometheus]"
  const Tracer* tracer = nullptr;            // "trace [TRACE_ID]"
  const Profiler* profiler = nullptr;        // "profile [json|collapsed]"
  std::function<std::string()> slo;          // "slo"
  const EventLog* eventlog = nullptr;        // "events"
  FlightRecorder* recorder = nullptr;        // "incidents [ID]"
  std::function<std::string()> health;       // "health"
};

/// Registers the standard documents on `registry`:
///   stats      the metrics snapshot as obs::ToJson; with `table`, a
///              build line then obs::RenderTable; with `prometheus`,
///              obs::ToPrometheusText
///   trace      the span buffer as Chrome trace JSON; with a trace id
///              (1-16 hex digits, optional 0x) only that trace's spans
///   profile    the profiler's JSON stack table, or with `collapsed`
///              the flame-graph text
///   slo        the SLO/error-budget document
///   events     the event-log dump
///   incidents  the flight-recorder summaries; with a decimal id, that
///              bundle (NotFound once evicted). Polls triggers first.
///   health     the readiness document
void RegisterStandardDocuments(const AdminSources& sources,
                               AdminRegistry* registry);

}  // namespace shpir::obs

#endif  // SHPIR_OBS_ADMIN_H_
