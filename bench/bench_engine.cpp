// Wall-clock microbenchmarks of the engines themselves (the software
// simulator's throughput, distinct from the simulated hardware times).
//
// Besides the usual google-benchmark console output, the binary writes
// BENCH_engine.json next to the working directory: a dedicated measurement
// pass over the instrumented engine reporting queries/sec and the
// p50/p95/p99 of shpir_engine_query_latency_ns, plus the observability
// overhead relative to an identical uninstrumented run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "baselines/pyramid_oram.h"
#include "baselines/wang_pir.h"
#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "crypto/secure_random.h"
#include "index/bplus_tree.h"
#include "index/hash_index.h"
#include "obs/metrics.h"

namespace {

using namespace shpir;

void BM_CApproxRetrieve(benchmark::State& state) {
  core::CApproxPir::Options options;
  options.num_pages = static_cast<uint64_t>(state.range(0));
  options.page_size = 1024;
  options.cache_pages = options.num_pages / 16;
  options.privacy_c = 2.0;
  storage::AccessTrace trace;
  auto stack = bench::MakeStack(options, 42, &trace);
  crypto::SecureRandom rng(1);
  for (auto _ : state) {
    auto data = stack->engine().Retrieve(rng.UniformInt(options.num_pages));
    benchmark::DoNotOptimize(data);
  }
  state.counters["k"] = static_cast<double>(stack->engine().block_size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CApproxRetrieve)->Arg(1024)->Arg(4096)->Arg(16384);

// Same workload with the full observability layer attached (registry,
// counters, latency + per-phase histograms). Compare against
// BM_CApproxRetrieve at the same Arg to see the instrumentation overhead;
// the acceptance budget is <= 5%.
void BM_CApproxRetrieveInstrumented(benchmark::State& state) {
  core::CApproxPir::Options options;
  options.num_pages = static_cast<uint64_t>(state.range(0));
  options.page_size = 1024;
  options.cache_pages = options.num_pages / 16;
  options.privacy_c = 2.0;
  // The registry must outlive the stack: detaching happens in destructors
  // (e.g. ~CApproxPir releases secure memory through the attached gauge).
  obs::MetricsRegistry registry;
  storage::AccessTrace trace;
  auto stack = bench::MakeStack(options, 42, &trace);
  stack->cpu().AttachMetrics(&registry);
  stack->engine().EnableMetrics(&registry);
  crypto::SecureRandom rng(1);
  for (auto _ : state) {
    auto data = stack->engine().Retrieve(rng.UniformInt(options.num_pages));
    benchmark::DoNotOptimize(data);
  }
  state.counters["k"] = static_cast<double>(stack->engine().block_size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CApproxRetrieveInstrumented)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_CApproxRetrieveByPrivacy(benchmark::State& state) {
  core::CApproxPir::Options options;
  options.num_pages = 4096;
  options.page_size = 1024;
  options.cache_pages = 256;
  options.privacy_c = 1.0 + static_cast<double>(state.range(0)) / 100.0;
  storage::AccessTrace trace;
  auto stack = bench::MakeStack(options, 42, &trace);
  crypto::SecureRandom rng(1);
  for (auto _ : state) {
    auto data = stack->engine().Retrieve(rng.UniformInt(options.num_pages));
    benchmark::DoNotOptimize(data);
  }
  state.counters["k"] = static_cast<double>(stack->engine().block_size());
}
BENCHMARK(BM_CApproxRetrieveByPrivacy)->Arg(5)->Arg(10)->Arg(50)->Arg(100);

void BM_WangRetrieve(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  storage::MemoryDisk disk(n, storage::PageCipher::SealedSize(1024));
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::Ibm4764(), &disk, 1024, 7);
  SHPIR_CHECK(cpu.ok());
  baselines::WangPir::Options options;
  options.num_pages = n;
  options.page_size = 1024;
  options.cache_pages = n / 16;
  auto pir = baselines::WangPir::Create(cpu->get(), options);
  SHPIR_CHECK(pir.ok());
  SHPIR_CHECK_OK((*pir)->Initialize({}));
  crypto::SecureRandom rng(2);
  for (auto _ : state) {
    auto data = (*pir)->Retrieve(rng.UniformInt(n));
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WangRetrieve)->Arg(1024)->Arg(4096);

void BM_PyramidOramRetrieve(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  baselines::PyramidOram::Options options;
  options.num_pages = n;
  options.page_size = 1024;
  options.stash_pages = 8;
  auto slots = baselines::PyramidOram::DiskSlots(options);
  SHPIR_CHECK(slots.ok());
  storage::MemoryDisk disk(*slots, storage::PageCipher::SealedSize(1024));
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::Ibm4764(), &disk, 1024, 8);
  SHPIR_CHECK(cpu.ok());
  auto oram = baselines::PyramidOram::Create(cpu->get(), options);
  SHPIR_CHECK(oram.ok());
  SHPIR_CHECK_OK((*oram)->Initialize({}));
  crypto::SecureRandom rng(3);
  for (auto _ : state) {
    auto data = (*oram)->Retrieve(rng.UniformInt(n));
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PyramidOramRetrieve)->Arg(1024)->Arg(4096);

void BM_EngineUpdates(benchmark::State& state) {
  core::CApproxPir::Options options;
  options.num_pages = 2048;
  options.page_size = 1024;
  options.cache_pages = 128;
  options.privacy_c = 2.0;
  options.insert_reserve = 256;
  storage::AccessTrace trace;
  auto stack = bench::MakeStack(options, 42, &trace);
  crypto::SecureRandom rng(4);
  Bytes payload(1024, 0x42);
  for (auto _ : state) {
    SHPIR_CHECK_OK(
        stack->engine().Modify(rng.UniformInt(options.num_pages), payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineUpdates);

// Private index lookups: B+-tree (height fetches) vs hash index
// (fixed 2 probes) over the same engine and key set.
void BM_PrivateIndexLookup(benchmark::State& state) {
  const bool use_hash = state.range(0) != 0;
  constexpr uint64_t kKeys = 20000;
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t i = 0; i < kKeys; ++i) {
    entries.emplace_back(i * 11 + 3, i);
  }
  std::vector<storage::Page> pages;
  if (use_hash) {
    index::HashIndexBuilder builder(1024);
    pages = *builder.Build(entries);
  } else {
    index::BPlusTreeBuilder builder(1024);
    pages = *builder.Build(entries);
  }
  core::CApproxPir::Options options;
  options.num_pages = pages.size();
  options.page_size = 1024;
  options.cache_pages = std::max<uint64_t>(16, pages.size() / 16);
  options.privacy_c = 2.0;
  auto stack = bench::MakeStack(options, 11, nullptr, pages);
  core::CApproxPir* engine = &stack->engine();

  crypto::SecureRandom rng(12);
  if (use_hash) {
    auto idx = index::HashIndex::Open(engine);
    SHPIR_CHECK(idx.ok());
    for (auto _ : state) {
      auto r = (*idx)->Lookup(entries[rng.UniformInt(kKeys)].first);
      benchmark::DoNotOptimize(r);
    }
    state.counters["fetches/op"] =
        static_cast<double>((*idx)->probe_width());
  } else {
    auto idx = index::BPlusTree::Open(engine);
    SHPIR_CHECK(idx.ok());
    for (auto _ : state) {
      auto r = (*idx)->Lookup(entries[rng.UniformInt(kKeys)].first);
      benchmark::DoNotOptimize(r);
    }
    state.counters["fetches/op"] = static_cast<double>((*idx)->height());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrivateIndexLookup)
    ->Arg(0)   // B+-tree.
    ->Arg(1);  // Hash index.

// Timed chunk of `queries` retrieves over an existing engine, drawing
// page ids from `rng`; returns wall ns/query.
double TimedRetrieveChunk(core::CApproxPir& engine, uint64_t queries,
                          crypto::SecureRandom& rng) {
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < queries; ++i) {
    auto data = engine.Retrieve(rng.UniformInt(4096));
    benchmark::DoNotOptimize(data);
  }
  const auto stop = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(stop - start).count();
  return ns / static_cast<double>(queries);
}

// Writes BENCH_engine.json: throughput and latency quantiles from the
// engine's own shpir_engine_query_latency_ns histogram, plus the overhead
// of running instrumented vs. plain.
void WriteEngineJson(const char* path, uint64_t kQueries, int kReps) {
  obs::MetricsRegistry registry;
  // Two persistent rigs (plain / instrumented), fast-interleaved in
  // ~25-query chunks; the overhead is the median of the per-chunk
  // paired ratios. Adjacent-in-time pairing plus a median keeps a
  // shared machine's heavy-tailed stalls from masquerading as
  // instrumentation overhead — fresh-rig best-of passes gated on
  // allocation layout and drift instead.
  core::CApproxPir::Options options;
  options.num_pages = 4096;
  options.page_size = 1024;
  options.cache_pages = 256;
  options.privacy_c = 2.0;
  storage::AccessTrace plain_trace, inst_trace;
  auto plain_stack = bench::MakeStack(options, 42, &plain_trace);
  auto inst_stack = bench::MakeStack(options, 42, &inst_trace);
  inst_stack->cpu().AttachMetrics(&registry);
  inst_stack->engine().EnableMetrics(&registry);
  core::CApproxPir& plain = plain_stack->engine();
  core::CApproxPir& inst = inst_stack->engine();

  constexpr uint64_t kChunkQueries = 25;
  const int chunks = static_cast<int>(
      std::max<uint64_t>(1, kQueries * static_cast<uint64_t>(kReps) /
                                kChunkQueries));
  crypto::SecureRandom plain_rng(1);
  crypto::SecureRandom inst_rng(1);
  // Warm both rigs' caches and page maps before timing.
  (void)TimedRetrieveChunk(plain, 64, plain_rng);
  (void)TimedRetrieveChunk(inst, 64, inst_rng);

  std::vector<double> plain_chunks, ratios;
  for (int chunk = 0; chunk < chunks; ++chunk) {
    const double p = TimedRetrieveChunk(plain, kChunkQueries, plain_rng);
    const double i = TimedRetrieveChunk(inst, kChunkQueries, inst_rng);
    plain_chunks.push_back(p);
    ratios.push_back(i / p);
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double plain_ns = median(plain_chunks);
  const double inst_ns = plain_ns * median(ratios);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  double p50 = 0, p95 = 0, p99 = 0;
  uint64_t count = 0;
  for (const obs::SnapshotHistogram& h : snapshot.histograms) {
    if (h.name == "shpir_engine_query_latency_ns") {
      p50 = h.p50;
      p95 = h.p95;
      p99 = h.p99;
      count = h.count;
    }
  }
  const double overhead_pct = plain_ns > 0
      ? 100.0 * (inst_ns - plain_ns) / plain_ns
      : 0.0;

  using bench::BenchReport;
  BenchReport report("bench_engine");
  report.SetHardwareProfile(hardware::HardwareProfile::Ibm4764());
  report.SetParam("num_pages", uint64_t{4096});
  report.SetParam("page_size", uint64_t{1024});
  report.SetParam("queries", count);
  report.SetParam("chunk_queries", kChunkQueries);
  report.SetParam("chunks", static_cast<uint64_t>(chunks));
  report.SetParam("time_base", std::string("wall_clock"));
  // Wall-clock throughput/latency depend on the CI machine, so they are
  // informational; the instrumented/plain ratio is machine-relative and
  // holds the seed PR's <= 5% observability budget.
  report.AddMetric("queries_per_sec", 1e9 / inst_ns,
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("latency_p50_ns", p50, BenchReport::Direction::kNone, 0.0);
  report.AddMetric("latency_p95_ns", p95, BenchReport::Direction::kNone, 0.0);
  report.AddMetric("latency_p99_ns", p99, BenchReport::Direction::kNone, 0.0);
  report.AddMetric("baseline_ns_per_query", plain_ns,
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("instrumented_ns_per_query", inst_ns,
                   BenchReport::Direction::kNone, 0.0);
  report.AddBudgetMetric("observability_overhead_percent", overhead_pct,
                         5.0);
  if (!report.WriteJson(path)) {
    return;
  }
  std::printf("wrote %s (%.0f queries/sec, p50=%.0fns, overhead=%.2f%%)\n",
              path, 1e9 / inst_ns, p50, overhead_pct);
}

}  // namespace

int main(int argc, char** argv) {
  // --short: CI smoke mode — skip the google-benchmark suite and take a
  // reduced measurement pass for BENCH_engine.json.
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  if (!short_mode) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  WriteEngineJson("BENCH_engine.json", short_mode ? 250 : 1000,
                  short_mode ? 3 : 5);
  return 0;
}
