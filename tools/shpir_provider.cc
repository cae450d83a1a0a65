// Storage-provider daemon for the two-party model: hosts a file-backed
// block store and serves the shpir wire protocol over TCP. The provider
// only ever sees sealed pages.
//
//   shpir_provider <disk-file> <slots> <slot-size> [port]
//
// Creates the disk file if it does not exist. Prints the bound port
// (port 0, the default, picks a free one) and serves until killed. Both
// modes serve each connection on its own thread, up to 64 at once.
//
// Hub mode instead runs the full three-party service in-process over
// the sharded serving runtime (src/shard/): S independent c-approximate
// engines behind a bounded-queue dispatcher, serving the ServiceHub
// frame protocol. Clients speak the same sealed-record protocol as
// against a single engine; the sharding (and its cover traffic) is
// invisible to them.
//
//   shpir_provider hub --pages N [--page-size B] [--cache M] [--c C]
//                      [--shards S] [--queue-depth D] [--deadline-ms T]
//                      [--port P] [--psk STR] [--seed X]
//
// --cache is the per-shard (per-device) cache m; see docs/SHARDING.md.
//
// Both modes serve their admin documents through the ADMIN op; read
// them with shpir_stats (`shpir_stats [hub] DOC`). "stats" and "health"
// are always served. The other documents need a flag:
//   --trace-buffer SPANS  "trace": a bounded buffer of the spans of
//                         requests that arrive traced (an owner or
//                         client run with --trace-sample)
//   --profile-sample N    "profile": continuous profiling, 1-in-N head
//                         sampling
//   --slo-latency-ms T    "slo": SLO tracking with latency threshold T
//   --eventlog N          "events": structured event log, N-event ring
//   --incidents K         "incidents": flight recorder keeping the last
//                         K bundles (also spilled to $SHPIR_INCIDENT_DIR
//                         when set)
// Every document is aggregate and target-independent by construction
// (see docs/OBSERVABILITY.md).
//
// Hub mode additionally accepts --control-c-bound C: runs the
// privacy/cost controller (src/control/), which retunes each shard's
// block size k online between [--control-kmin, --control-kmax] to hold
// latency while keeping Eq. 5 c below C. --control-interval-ms sets the
// tick period (default 1000); --control-frozen 1 starts it frozen
// (observe only). Inspect and steer it through the "control" document
// (`shpir_stats hub control [freeze|unfreeze|set-bounds KMIN KMAX]`),
// which only the hub's authenticated session serves.

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "control/controller.h"
#include "net/service_hub.h"
#include "net/storage_server.h"
#include "net/tcp_transport.h"
#include "obs/admin.h"
#include "obs/build_info.h"
#include "obs/eventlog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "shard/sharded_engine.h"
#include "storage/file_disk.h"
#include "storage/metered_disk.h"

namespace {

using namespace shpir;
using cli::Flags;
using cli::Kind;

/// The flags a mode accepts: the observability flags both modes share,
/// plus hub mode's own.
std::vector<cli::Flag> AcceptedFlags(bool hub) {
  std::vector<cli::Flag> flags = {
      {"trace-buffer", Kind::kCount}, {"profile-sample", Kind::kCount},
      {"slo-latency-ms", Kind::kCount}, {"eventlog", Kind::kCount},
      {"incidents", Kind::kCount}};
  if (hub) {
    flags.insert(flags.end(),
                 {{"pages", Kind::kCount},
                  {"page-size", Kind::kCount},
                  {"cache", Kind::kCount},
                  {"c", Kind::kReal},
                  {"shards", Kind::kCount},
                  {"queue-depth", Kind::kCount},
                  {"deadline-ms", Kind::kCount},
                  {"port", Kind::kPort},
                  {"psk", Kind::kText},
                  {"seed", Kind::kCount},
                  {"control-c-bound", Kind::kReal},
                  {"control-kmin", Kind::kCount},
                  {"control-kmax", Kind::kCount},
                  {"control-interval-ms", Kind::kCount},
                  {"control-frozen", Kind::kCount}});
  }
  return flags;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// The observability objects both modes build from the same flags, and
/// the registry that serves their documents.
struct Observability {
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::Profiler> profiler;
  std::unique_ptr<obs::EventLog> eventlog;
  std::unique_ptr<obs::FlightRecorder> recorder;
  obs::AdminRegistry admin;

  /// Registers the standard documents over these objects; `slo` (null
  /// when SLO tracking is off) and `health` render the mode's own.
  void RegisterDocuments(obs::MetricsRegistry* metrics,
                         std::function<std::string()> slo,
                         std::function<std::string()> health) {
    obs::AdminSources sources;
    sources.metrics = metrics;
    sources.tracer = tracer.get();
    sources.profiler = profiler.get();
    sources.slo = std::move(slo);
    sources.eventlog = eventlog.get();
    sources.recorder = recorder.get();
    sources.health = std::move(health);
    obs::RegisterStandardDocuments(sources, &admin);
  }
};

/// Builds what --trace-buffer, --profile-sample, --eventlog and
/// --incidents ask for, publishing each one's metrics on `metrics`. The
/// flight recorder captures whichever of the others exist.
Observability WireObservability(const Flags& args,
                                obs::MetricsRegistry* metrics) {
  Observability o;
  // Sampling is decided by clients (head sampling at the root span);
  // the server-side tracer only buffers spans for propagated contexts.
  if (const uint64_t spans = args.GetU64("trace-buffer", 0); spans > 0) {
    obs::Tracer::Options options;
    options.buffer_capacity = spans;
    o.tracer = std::make_unique<obs::Tracer>(options);
  }
  if (const uint64_t every = args.GetU64("profile-sample", 0); every > 0) {
    obs::Profiler::Options options;
    options.sample_every = every;
    o.profiler = std::make_unique<obs::Profiler>(options);
    o.profiler->PublishMetrics(metrics);
  }
  if (const uint64_t events = args.GetU64("eventlog", 0); events > 0) {
    obs::EventLog::Options options;
    options.capacity = events;
    o.eventlog = std::make_unique<obs::EventLog>(options);
    o.eventlog->PublishMetrics(metrics);
  }
  if (const uint64_t incidents = args.GetU64("incidents", 0); incidents > 0) {
    obs::FlightRecorder::Options options;
    options.max_incidents = incidents;
    o.recorder = std::make_unique<obs::FlightRecorder>(options);
    o.recorder->AttachEventLog(o.eventlog.get());
    o.recorder->AttachTracer(o.tracer.get());
    o.recorder->AttachMetrics(metrics);
    o.recorder->AttachProfiler(o.profiler.get());
    o.recorder->PublishMetrics(metrics);
  }
  return o;
}

obs::SloTracker::Objectives SloObjectives(uint64_t latency_ms) {
  obs::SloTracker::Objectives objectives;
  objectives.latency_threshold_ns = latency_ms * 1'000'000;
  return objectives;
}

int ServeHub(const Flags& args) {
  shard::ShardedPirEngine::Options options;
  options.num_pages = args.GetU64("pages", 0);
  options.page_size = args.GetU64("page-size", 1024);
  options.cache_pages = args.GetU64("cache", 64);
  options.privacy_c = args.GetDouble("c", 2.0);
  options.shards = args.GetU64("shards", 1);
  options.queue_depth = args.GetU64("queue-depth", 64);
  const uint64_t deadline_ms = args.GetU64("deadline-ms", 0);
  if (deadline_ms > 0) {
    options.deadline = std::chrono::milliseconds(deadline_ms);
  }
  const uint64_t seed = args.GetU64("seed", 0);
  if (seed != 0) {
    options.seed = seed;
  }
  if (options.num_pages == 0) {
    std::fprintf(stderr, "error: hub mode requires --pages\n");
    return 2;
  }
  const uint16_t port = args.GetPort("port", 0);
  const std::string psk_text = args.Get("psk", "shpir");
  Bytes psk(psk_text.begin(), psk_text.end());

  Result<std::unique_ptr<shard::ShardedPirEngine>> created =
      shard::ShardedPirEngine::Create(options);
  if (!created.ok()) {
    return Fail(created.status());
  }
  shard::ShardedPirEngine* engine = created->get();
  const Status loaded = engine->Initialize({});
  if (!loaded.ok()) {
    return Fail(loaded);
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::PublishBuildInfo(&metrics);
  engine->EnableMetrics(&metrics);

  Observability o = WireObservability(args, &metrics);
  if (o.tracer != nullptr) {
    engine->EnableTracing(o.tracer.get());
  }
  if (o.profiler != nullptr) {
    engine->EnableProfiling(o.profiler.get());
  }
  std::function<std::string()> slo;
  if (const uint64_t ms = args.GetU64("slo-latency-ms", 0); ms > 0) {
    engine->EnableSlo(SloObjectives(ms), &metrics);
    slo = [engine] { return engine->SloStatusJson(); };
  }
  if (o.eventlog != nullptr) {
    engine->EnableEventLog(o.eventlog.get());
  }
  if (o.recorder != nullptr) {
    // Registers the runtime's triggers (privacy breach, SLO burn,
    // dispatcher overload) and the config fingerprint. Must follow
    // EnableSlo so the SLO trigger sees the logical tracker.
    engine->EnableFlightRecorder(o.recorder.get());
  }
  o.RegisterDocuments(&metrics, std::move(slo),
                      [engine] { return engine->HealthJson(); });

  control::ShardedEnginePlant plant(engine);
  std::unique_ptr<control::PrivacyCostController> controller;
  const double control_c_bound = args.GetDouble("control-c-bound", 0.0);
  if (control_c_bound > 0.0) {
    control::PrivacyCostController::Options copts;
    copts.c_bound = control_c_bound;
    copts.k_min = args.GetU64("control-kmin", 1);
    copts.k_max = args.GetU64("control-kmax", 0);
    copts.tick_interval = std::chrono::milliseconds(
        args.GetU64("control-interval-ms", 1000));
    copts.start_frozen = args.GetU64("control-frozen", 0) != 0;
    Result<std::unique_ptr<control::PrivacyCostController>> made =
        control::PrivacyCostController::Create(copts, &plant);
    if (!made.ok()) {
      return Fail(made.status());
    }
    controller = std::move(*made);
    controller->EnableMetrics(&metrics);
    controller->EnableEventLog(o.eventlog.get());
    controller->EnableTracing(o.tracer.get());
    if (o.recorder != nullptr) {
      controller->EnableFlightRecorder(o.recorder.get());
    }
    control::RegisterControlDocument(controller.get(), &o.admin);
    controller->Start();
  }

  net::ServiceHub hub(engine, std::move(psk), /*rng_seed=*/0, &metrics,
                      o.tracer.get(), &o.admin);
  Result<std::unique_ptr<net::TcpFrameListener>> listener =
      net::TcpFrameListener::Listen(
          [&hub](ByteSpan frame) { return hub.HandleFrame(frame); }, port);
  if (!listener.ok()) {
    return Fail(listener.status());
  }
  const shard::ShardPlan& plan = engine->plan();
  std::printf("sharded hub: %llu pages x %zuB over %llu shard(s), "
              "per-shard k = %llu, worst c = %.4f, queue depth %zu\n",
              (unsigned long long)plan.total_pages(), options.page_size,
              (unsigned long long)plan.shards(),
              (unsigned long long)plan.spec(0).block_size, plan.worst_c(),
              options.queue_depth);
  std::printf("serving on 127.0.0.1:%u\n", (*listener)->port());
  std::fflush(stdout);
  (*listener)->Run();
  if (controller != nullptr) {
    controller->Stop();
  }
  engine->Drain();
  return 0;
}

int ServeStorage(const Flags& args) {
  const std::vector<std::string>& positional = args.positional();
  if (positional.size() < 3 || positional.size() > 4) {
    return 2;
  }
  const std::string& path = positional[0];
  uint64_t slots = 0;
  uint64_t slot_size = 0;
  uint16_t port = 0;
  if (!obs::ParseAdminNumber(positional[1], &slots) ||
      !obs::ParseAdminNumber(positional[2], &slot_size) ||
      (positional.size() == 4 && !cli::ParsePort(positional[3], &port))) {
    std::fprintf(stderr, "error: slots, slot-size and port must be "
                         "numbers\n");
    return 2;
  }
  if (slots == 0 || slot_size == 0) {
    std::fprintf(stderr, "error: slots and slot-size must be positive\n");
    return 2;
  }

  // Open if present, else create.
  Result<std::unique_ptr<storage::FileDisk>> disk =
      storage::FileDisk::Open(path, slots, slot_size);
  if (!disk.ok()) {
    disk = storage::FileDisk::Create(path, slots, slot_size);
    if (!disk.ok()) {
      return Fail(disk.status());
    }
    std::printf("created %s (%llu x %llu bytes)\n", path.c_str(),
                (unsigned long long)slots, (unsigned long long)slot_size);
  } else {
    std::printf("opened %s\n", path.c_str());
  }

  // Everything the provider observes is public by assumption (it is the
  // untrusted party), so its documents may be served to any client.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::PublishBuildInfo(&metrics);
  storage::MeteredDisk metered(disk->get(), &metrics);
  Observability o = WireObservability(args, &metrics);
  std::unique_ptr<obs::SloTracker> slo;
  if (const uint64_t ms = args.GetU64("slo-latency-ms", 0); ms > 0) {
    slo = std::make_unique<obs::SloTracker>(SloObjectives(ms));
    slo->PublishMetrics(&metrics);
  }
  if (o.recorder != nullptr) {
    o.recorder->SetConfigFingerprint(
        "slots=" + std::to_string(slots) +
        " slot_size=" + std::to_string(slot_size) + " | " +
        obs::BuildInfoSummary());
    if (slo != nullptr) {
      o.recorder->AddTrigger("slo_burn_alert", [s = slo.get()] {
        return s->Evaluate().alert_transitions;
      });
    }
  }
  std::function<std::string()> slo_document;
  if (slo != nullptr) {
    slo_document = [s = slo.get()] { return s->ToJson(); };
  }
  o.RegisterDocuments(&metrics, std::move(slo_document),
                      [s = slo.get(), l = o.eventlog.get(),
                       r = o.recorder.get()] {
                        return net::StorageHealthJson(s, l, r);
                      });
  net::StorageServer server(&metered, &metrics, o.tracer.get(),
                            o.profiler.get(), slo.get(), o.eventlog.get(),
                            o.recorder.get(), &o.admin);
  Result<std::unique_ptr<net::TcpFrameListener>> listener =
      net::TcpFrameListener::Listen(
          [&server](ByteSpan frame) -> Result<Bytes> {
            return server.Handle(frame);
          },
          port);
  if (!listener.ok()) {
    return Fail(listener.status());
  }
  std::printf("serving on 127.0.0.1:%u\n", (*listener)->port());
  std::fflush(stdout);
  (*listener)->Run();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool hub = argc >= 2 && std::strcmp(argv[1], "hub") == 0;
  const std::optional<Flags> flags =
      Flags::Parse(argc, argv, hub ? 2 : 1, AcceptedFlags(hub));
  int code = 2;
  if (flags && hub && flags->positional().empty()) {
    code = ServeHub(*flags);
  } else if (flags && !hub) {
    code = ServeStorage(*flags);
  }
  if (code == 2) {
    std::fprintf(
        stderr,
        "usage: %s <disk-file> <slots> <slot-size> [port]\n"
        "          [--trace-buffer SPANS] [--profile-sample N]\n"
        "          [--slo-latency-ms T] [--eventlog N] [--incidents K]\n"
        "       %s hub --pages N [--page-size B] [--cache M] [--c C]\n"
        "          [--shards S] [--queue-depth D] [--deadline-ms T]\n"
        "          [--port P] [--psk STR] [--seed X]\n"
        "          [--trace-buffer SPANS] [--profile-sample N]\n"
        "          [--slo-latency-ms T] [--eventlog N] [--incidents K]\n"
        "          [--control-c-bound C] [--control-kmin K]\n"
        "          [--control-kmax K] [--control-interval-ms T]\n"
        "          [--control-frozen 0|1]\n",
        argv[0], argv[0]);
  }
  return code;
}
