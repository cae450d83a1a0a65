// Client-perceived latency under load: feeds each engine's per-query
// *service* times into an M/G/1 FIFO queue. The paper's complaint about
// amortized schemes — "some queries may lead to excessive delays,
// essentially taking the database server offline for large periods of
// time" — is head-of-line blocking: a single reshuffle stalls every
// queued client. Constant-cost service keeps tail sojourn times tame at
// the same offered load.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/pyramid_oram.h"
#include "baselines/wang_pir.h"
#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "model/queueing.h"
#include "workload/workload.h"

namespace {

using namespace shpir;

constexpr uint64_t kNumPages = 4096;
constexpr size_t kPageSize = 256;
constexpr size_t kSlotSize = storage::PageCipher::SealedSize(kPageSize);
int g_queries = 3000;  // Reduced by --short.

std::vector<double> ServiceTimes(core::PirEngine& engine,
                                 hardware::SecureCoprocessor& cpu,
                                 uint64_t seed) {
  workload::UniformWorkload wl(kNumPages, seed);
  std::vector<double> service;
  service.reserve(g_queries);
  for (int i = 0; i < g_queries; ++i) {
    const auto before = cpu.cost().Snapshot();
    SHPIR_CHECK(engine.Retrieve(wl.Next()).ok());
    const auto delta = cpu.cost().Snapshot() - before;
    service.push_back(
        hardware::CostAccountant::Seconds(delta, cpu.profile()));
  }
  return service;
}

struct EngineRow {
  const char* name;
  model::QueueStats stats;
};

std::vector<EngineRow> g_rows;

void Report(const char* name, const std::vector<double>& service,
            double arrival_rate) {
  const model::QueueStats stats =
      model::SimulateFifoQueue(service, arrival_rate, 42);
  std::printf("%-12s %8.3f %10.1f %10.1f %10.1f %12.1f\n", name,
              stats.utilization, 1000 * stats.p50_s, 1000 * stats.p95_s,
              1000 * stats.p99_s, 1000 * stats.max_s);
  g_rows.push_back({name, stats});
}

void WriteQueueingJson(const char* path, double arrival_rate) {
  using bench::BenchReport;
  BenchReport report("bench_queueing");
  report.SetHardwareProfile(hardware::HardwareProfile::Ibm4764());
  report.SetParam("model", std::string("mg1_fifo"));
  report.SetParam("num_pages", kNumPages);
  report.SetParam("page_size", static_cast<uint64_t>(kPageSize));
  report.SetParam("queries", static_cast<uint64_t>(g_queries));
  report.SetParam("arrival_rate_qps", arrival_rate);
  report.SetParam("time_base", std::string("simulated_ibm4764"));
  // Simulated-time sojourns off seeded workloads are deterministic; a
  // tail regression here means the engine's service-time distribution
  // changed (e.g. an accidental blocking phase), so gate tightly on the
  // paper engine's tail.
  for (const EngineRow& row : g_rows) {
    if (std::strcmp(row.name, "c-approx") == 0) {
      report.AddMetric("capprox_p99_s", row.stats.p99_s,
                       BenchReport::Direction::kLowerBetter, 2.0);
      report.AddMetric("capprox_utilization", row.stats.utilization,
                       BenchReport::Direction::kNone, 0.0);
    }
  }
  std::string engines = "[\n";
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const model::QueueStats& s = g_rows[i].stats;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "      {\"engine\": \"%s\", \"utilization\": %.6f, "
                  "\"mean_s\": %.9f, \"p50_s\": %.9f, \"p95_s\": %.9f, "
                  "\"p99_s\": %.9f, \"max_s\": %.9f}%s\n",
                  g_rows[i].name, s.utilization, s.mean_s, s.p50_s,
                  s.p95_s, s.p99_s, s.max_s,
                  i + 1 < g_rows.size() ? "," : "");
    engines += line;
  }
  engines += "    ]";
  report.AddSection("engines", engines);
  if (report.WriteJson(path)) {
    std::printf("\nwrote %s\n", path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      g_queries = 800;
    }
  }
  const auto profile = hardware::HardwareProfile::Ibm4764();
  std::printf(
      "Client-perceived sojourn time (queueing + service) at a shared\n"
      "arrival rate, n = %llu x %zuB, %d queries, M/G/1 FIFO:\n\n",
      (unsigned long long)kNumPages, kPageSize, g_queries);

  // c-approximate engine sets the pace: load it to ~60%.
  std::vector<double> capprox_service;
  {
    core::CApproxPir::Options options;
    options.num_pages = kNumPages;
    options.page_size = kPageSize;
    options.cache_pages = 256;
    options.privacy_c = 2.0;
    storage::AccessTrace trace;
    auto stack = bench::MakeStack(options, 1, &trace);
    capprox_service = ServiceTimes(stack->engine(), stack->cpu(), 100);
  }
  double mean = 0;
  for (double s : capprox_service) {
    mean += s;
  }
  mean /= capprox_service.size();
  const double arrival_rate = 0.6 / mean;
  std::printf("arrival rate: %.1f queries/s (60%% of the c-approx "
              "engine's capacity)\n\n",
              arrival_rate);
  std::printf("%-12s %8s %10s %10s %10s %12s\n", "engine", "load",
              "p50 ms", "p95 ms", "p99 ms", "max ms");
  Report("c-approx", capprox_service, arrival_rate);

  {
    storage::MemoryDisk disk(kNumPages, kSlotSize);
    auto cpu = hardware::SecureCoprocessor::Create(profile, &disk,
                                                   kPageSize, 2);
    SHPIR_CHECK(cpu.ok());
    baselines::WangPir::Options options;
    options.num_pages = kNumPages;
    options.page_size = kPageSize;
    options.cache_pages = 256;
    auto pir = baselines::WangPir::Create(cpu->get(), options);
    SHPIR_CHECK(pir.ok());
    SHPIR_CHECK_OK((*pir)->Initialize({}));
    Report("wang06", ServiceTimes(**pir, **cpu, 101), arrival_rate);
  }
  {
    baselines::PyramidOram::Options options;
    options.num_pages = kNumPages;
    options.page_size = kPageSize;
    options.stash_pages = 8;
    auto slots = baselines::PyramidOram::DiskSlots(options);
    SHPIR_CHECK(slots.ok());
    storage::MemoryDisk disk(*slots, kSlotSize);
    auto cpu = hardware::SecureCoprocessor::Create(profile, &disk,
                                                   kPageSize, 3);
    SHPIR_CHECK(cpu.ok());
    auto oram = baselines::PyramidOram::Create(cpu->get(), options);
    SHPIR_CHECK(oram.ok());
    SHPIR_CHECK_OK((*oram)->Initialize({}));
    Report("pyramid-oram", ServiceTimes(**oram, **cpu, 102), arrival_rate);
  }

  WriteQueueingJson("BENCH_queueing.json", arrival_rate);
  std::printf(
      "\nReading: identical arrivals, wildly different tails. The\n"
      "reshuffle-based engines may show lower medians (cheaper average\n"
      "service) but their p99/max sojourn explodes when a reshuffle\n"
      "blocks the queue — the paper's 'server offline' effect. The\n"
      "c-approximate engine's tail stays within normal Poisson queueing\n"
      "variation of its median (no service spikes to amplify).\n");
  return 0;
}
