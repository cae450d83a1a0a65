// Overhead of the structured event log (src/obs/eventlog.h) on the
// sharded serving runtime.
//
// Three configurations over ONE engine (same seed, same query stream,
// same memory layout), toggled via EnableEventLog in rapidly cycled
// ~12-query chunks; each overhead is the median of the per-chunk
// paired ratios (the bench_tracing methodology — fast cycling plus a
// median keeps a shared machine's heavy-tailed stalls out of the
// budgets):
//
//   base      — no event log attached (plain Retrieve);
//   disabled  — log attached with min_level = kWarn: the per-query
//               kDebug "fanout_complete" event is rejected by the level
//               check before any lock or clock read (budget: <= 1%);
//   enabled   — log attached at kDebug with the flight recorder wired
//               in: every logical query records one event into the
//               lock-sharded ring, and the fan-out polls the recorder's
//               edge triggers every 64 queries (budget: <= 5%).
//
// Wall-clock time is what matters (the instrumentation runs on this
// machine, not the simulated device), so the per-query numbers are
// real nanoseconds. Writes BENCH_eventlog.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "common/check.h"
#include "obs/eventlog.h"
#include "obs/flight_recorder.h"
#include "shard/sharded_engine.h"
#include "workload/workload.h"

namespace {

using namespace shpir;

constexpr uint64_t kNumPages = 2048;
constexpr size_t kPageSize = 256;
constexpr uint64_t kCachePerDevice = 32;
constexpr double kPrivacyC = 2.0;
constexpr uint64_t kShards = 2;
// A 12-query chunk lasts ~1.1 ms with AES-NI page crypto, so one
// chunk's ratio is mostly scheduling noise. Ten runs on a 4-vCPU VM
// (gcc 12.2, Release) spread the disabled overhead over -0.22..+2.21%
// at 60 chunks (one run over the 1% budget), -0.22..+0.57% at 250,
// -0.07..+0.17% at 1,000 (3.0-3.5 s a run) and -0.15..+0.22% at 2,000
// (6.7-7.9 s a run).
constexpr int kChunkQueries = 12;
int g_chunks_per_config = 2000;  // Reduced by --short.
constexpr double kBudgetDisabledPct = 1.0;
constexpr double kBudgetEnabledPct = 5.0;

std::unique_ptr<shard::ShardedPirEngine> MakeEngine() {
  shard::ShardedPirEngine::Options options;
  options.num_pages = kNumPages;
  options.page_size = kPageSize;
  options.cache_pages = kCachePerDevice;
  options.privacy_c = kPrivacyC;
  options.shards = kShards;
  options.queue_depth = 1024;
  options.seed = 7;  // Identical engine state across configurations.
  auto engine = shard::ShardedPirEngine::Create(options);
  SHPIR_CHECK(engine.ok());
  SHPIR_CHECK_OK((*engine)->Initialize({}));
  return std::move(engine).value();
}

/// One timed chunk of kChunkQueries logical retrieves drawn from `wl`.
double TimeChunkSeconds(shard::ShardedPirEngine& engine,
                        workload::UniformWorkload& wl) {
  const auto start = std::chrono::steady_clock::now();
  for (int q = 0; q < kChunkQueries; ++q) {
    SHPIR_CHECK_OK(engine.Retrieve(wl.Next()).status());
  }
  // Cover queries on the other shards finish asynchronously; wait so
  // every configuration pays for its full fan-out.
  engine.WaitIdle();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

void WriteJson(const char* path, double base_ns, double disabled_ns,
               double enabled_ns, double overhead_disabled_pct,
               double overhead_enabled_pct, const obs::EventLog& log,
               const obs::FlightRecorder& recorder) {
  using bench::BenchReport;
  BenchReport report("bench_eventlog");
  report.SetHardwareProfile(hardware::HardwareProfile::Ibm4764());
  report.SetParam("num_pages", kNumPages);
  report.SetParam("page_size", static_cast<uint64_t>(kPageSize));
  report.SetParam("shards", kShards);
  report.SetParam("chunk_queries", static_cast<uint64_t>(kChunkQueries));
  report.SetParam("chunks_per_config",
                  static_cast<uint64_t>(g_chunks_per_config));
  report.SetParam("time_base", std::string("wall_clock"));
  report.AddMetric("base_ns_per_query", base_ns,
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("disabled_ns_per_query", disabled_ns,
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("enabled_ns_per_query", enabled_ns,
                   BenchReport::Direction::kNone, 0.0);
  // The overhead ratios are machine-relative: both numerator and
  // denominator ran interleaved on the same machine, so the budget
  // bound is meaningful on any CI host.
  report.AddBudgetMetric("overhead_disabled_pct", overhead_disabled_pct,
                         kBudgetDisabledPct);
  report.AddBudgetMetric("overhead_enabled_pct", overhead_enabled_pct,
                         kBudgetEnabledPct);
  report.AddMetric("events_recorded", static_cast<double>(log.recorded()),
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("recorder_polls", static_cast<double>(recorder.polls()),
                   BenchReport::Direction::kNone, 0.0);
  // The quiet steady state must stay quiet: a spontaneous incident here
  // means a trigger counter regressed into false edges.
  report.AddMetric("incidents_sealed", static_cast<double>(recorder.sealed()),
                   BenchReport::Direction::kLowerBetter, 0.0);
  if (report.WriteJson(path)) {
    std::printf("wrote %s\n", path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      g_chunks_per_config = 1000;
    }
  }
  std::printf(
      "Event-log overhead on the sharded runtime: n = %llu x %zuB, "
      "S = %llu, %d chunks x %d queries per config, fast-interleaved.\n\n",
      (unsigned long long)kNumPages, kPageSize, (unsigned long long)kShards,
      g_chunks_per_config, kChunkQueries);

  auto engine = MakeEngine();

  // "Disabled": attached, but the per-query kDebug event is filtered by
  // the level check before any lock or clock read.
  obs::EventLog::Options disabled_options;
  disabled_options.min_level = obs::EventLevel::kWarn;
  obs::EventLog disabled_log(disabled_options);

  // "Enabled": every logical query records an event, and the flight
  // recorder's triggers are polled on the fan-out path.
  obs::EventLog::Options enabled_options;
  enabled_options.min_level = obs::EventLevel::kDebug;
  obs::EventLog enabled_log(enabled_options);
  obs::FlightRecorder::Options recorder_options;
  recorder_options.spill_dir = "";  // In-memory only for the bench.
  obs::FlightRecorder recorder(recorder_options);
  recorder.AttachEventLog(&enabled_log);

  // Warmup: a few untimed chunks fill the caches.
  {
    workload::UniformWorkload warmup(kNumPages, 1000);
    for (int i = 0; i < 8; ++i) {
      (void)TimeChunkSeconds(*engine, warmup);
    }
  }

  // Per-chunk paired ratios, reduced by median.
  workload::UniformWorkload base_wl(kNumPages, 2000);
  workload::UniformWorkload disabled_wl(kNumPages, 2000);
  workload::UniformWorkload enabled_wl(kNumPages, 2000);
  std::vector<double> base_chunks, disabled_ratios, enabled_ratios;
  for (int chunk = 0; chunk < g_chunks_per_config; ++chunk) {
    engine->EnableEventLog(nullptr);
    engine->EnableFlightRecorder(nullptr);
    const double base = TimeChunkSeconds(*engine, base_wl);
    engine->EnableEventLog(&disabled_log);
    const double disabled = TimeChunkSeconds(*engine, disabled_wl);
    engine->EnableEventLog(&enabled_log);
    engine->EnableFlightRecorder(&recorder);
    const double enabled = TimeChunkSeconds(*engine, enabled_wl);
    base_chunks.push_back(base);
    disabled_ratios.push_back(disabled / base);
    enabled_ratios.push_back(enabled / base);
  }
  engine->EnableEventLog(nullptr);
  engine->EnableFlightRecorder(nullptr);
  engine->Drain();

  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double base_ns = median(base_chunks) * 1e9 / kChunkQueries;
  const double disabled_ns = base_ns * median(disabled_ratios);
  const double enabled_ns = base_ns * median(enabled_ratios);
  const double overhead_disabled_pct =
      100.0 * (median(disabled_ratios) - 1.0);
  const double overhead_enabled_pct = 100.0 * (median(enabled_ratios) - 1.0);

  std::printf("%10s %16s %10s\n", "config", "ns/query", "overhead");
  std::printf("%10s %16.0f %10s\n", "base", base_ns, "-");
  std::printf("%10s %16.0f %9.2f%%\n", "disabled", disabled_ns,
              overhead_disabled_pct);
  std::printf("%10s %16.0f %9.2f%%\n", "enabled", enabled_ns,
              overhead_enabled_pct);
  std::printf(
      "\nevent log: %llu emitted, %llu recorded, %llu filtered, "
      "%llu dropped; recorder: %llu polls, %llu sealed\n\n",
      (unsigned long long)enabled_log.emitted(),
      (unsigned long long)enabled_log.recorded(),
      (unsigned long long)disabled_log.filtered(),
      (unsigned long long)enabled_log.dropped(),
      (unsigned long long)recorder.polls(),
      (unsigned long long)recorder.sealed());

  WriteJson("BENCH_eventlog.json", base_ns, disabled_ns, enabled_ns,
            overhead_disabled_pct, overhead_enabled_pct, enabled_log,
            recorder);

  std::printf(
      "\nReading: the filtered path is one branch on an atomic options\n"
      "read, so the disabled overhead should sit inside the %.0f%% budget;\n"
      "the enabled path adds one sharded-ring write per logical query\n"
      "(never per shard query) and stays inside %.0f%%.\n",
      kBudgetDisabledPct, kBudgetEnabledPct);
  return 0;
}
