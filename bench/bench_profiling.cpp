// Overhead and coverage of the continuous profiler (src/obs/profiler.h)
// on the Fig. 3 engine, plus a flame-graph artifact.
//
// Three configurations over ONE engine (same seed, same query stream,
// same memory layout — separate rigs pick up percent-level allocation
// bias, larger than the effect under test), toggled via
// EnableProfiling in rapidly cycled ~25-query chunks. Overhead is the
// median over chunks of each config's time paired with the base
// chunk's. Cycling on a ~6 ms period means every config samples a noisy
// shared machine's slow phases nearly equally — per-config passes or
// best-of floors do not, and gate on drift instead of the effect under
// test:
//
//   base      — no profiler attached (plain Retrieve);
//   disabled  — profiler attached with sample_every = 0: every query
//               pays only the head-sampling fetch_add (budget: <= 1%);
//   sampled   — sample_every = 16, the production default: 1-in-16
//               rounds record the full frame stack (budget: <= 5%).
//
// The sampled configuration's profile also yields the coverage check:
// at least 90% of the wall time inside sampled engine_round frames must
// be attributed to named child phases (otherwise the span vocabulary
// has a hole and flame graphs would show an unexplained root).
//
// Writes BENCH_profiling.json (bench_report.h schema; the overhead and
// coverage bounds ride along as budget metrics so shpir_benchdiff
// enforces them in CI) and BENCH_profile_collapsed.txt, a
// flame-graph-compatible collapsed profile of the sampled run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "crypto/secure_random.h"
#include "obs/profiler.h"

namespace {

using namespace shpir;

constexpr uint64_t kNumPages = 4096;
constexpr size_t kPageSize = 1024;
constexpr uint64_t kCachePages = 256;
constexpr double kPrivacyC = 2.0;
// A query takes ~84 us with AES-NI page crypto, so a chunk lasts
// ~2.1 ms and one chunk's ratio is dominated by scheduling noise. Ten
// runs of 120 chunks read -0.83..+0.94% on a shared 4-vCPU VM, against
// the 1% budget; twenty runs of 500 chunks read -0.09..+0.47%.
constexpr int kChunkQueries = 25;
int g_chunks_per_config = 1500;  // Reduced by --short.
constexpr uint64_t kSampleEvery = 16;
constexpr double kBudgetDisabledPct = 1.0;
constexpr double kBudgetSampledPct = 5.0;
constexpr double kMaxUncoveredFraction = 0.10;

core::CApproxPir::Options StackOptions() {
  core::CApproxPir::Options options;
  options.num_pages = kNumPages;
  options.page_size = kPageSize;
  options.cache_pages = kCachePages;
  options.privacy_c = kPrivacyC;
  return options;
}

/// One timed chunk of kChunkQueries retrieves drawn from `rng`;
/// returns seconds. Each config owns an identically seeded stream, so
/// all three issue the same queries in the same order.
double TimeChunkSeconds(core::CApproxPir& engine,
                        crypto::SecureRandom& rng) {
  const auto start = std::chrono::steady_clock::now();
  for (int q = 0; q < kChunkQueries; ++q) {
    auto data = engine.Retrieve(rng.UniformInt(kNumPages));
    SHPIR_CHECK(data.ok());
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Fraction of profiled wall time NOT attributed to a named child
/// phase: root-frame self time / total attributed time. External
/// samples (none in this single-engine setup) would count as covered.
double UncoveredFraction(const obs::Profiler& profiler) {
  uint64_t total = 0;
  uint64_t root_self = 0;
  for (const obs::Profiler::StackSample& s : profiler.Snapshot()) {
    total += s.wall_ns;
    if (s.stack.find(';') == std::string::npos) {
      root_self += s.wall_ns;
    }
  }
  return total > 0 ? static_cast<double>(root_self) / total : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      g_chunks_per_config = 500;
    }
  }
  std::printf(
      "Profiler overhead on the c-approximate engine: n = %llu x %zuB, "
      "%d chunks x %d queries per config, fast-interleaved.\n\n",
      (unsigned long long)kNumPages, kPageSize, g_chunks_per_config,
      kChunkQueries);

  storage::AccessTrace trace;
  auto stack = bench::MakeStack(StackOptions(), 42, &trace);
  core::CApproxPir& engine = stack->engine();

  obs::Profiler::Options disabled_options;
  disabled_options.sample_every = 0;  // Attached but never samples.
  obs::Profiler disabled_profiler(disabled_options);

  obs::Profiler::Options sampled_options;
  sampled_options.sample_every = kSampleEvery;
  obs::Profiler sampled_profiler(sampled_options);

  // Warmup: a few untimed chunks fill the page cache and allocator.
  {
    crypto::SecureRandom warmup_rng(1000);
    for (int i = 0; i < 8; ++i) {
      (void)TimeChunkSeconds(engine, warmup_rng);
    }
  }

  // Per-chunk paired ratios, reduced by median: a scheduler stall
  // hitting one chunk (they are heavy-tailed on shared machines)
  // perturbs one ratio, not the aggregate.
  crypto::SecureRandom base_rng(2000);
  crypto::SecureRandom disabled_rng(2000);
  crypto::SecureRandom sampled_rng(2000);
  std::vector<double> base_chunks, disabled_ratios, sampled_ratios;
  for (int chunk = 0; chunk < g_chunks_per_config; ++chunk) {
    engine.EnableProfiling(nullptr);
    const double base = TimeChunkSeconds(engine, base_rng);
    engine.EnableProfiling(&disabled_profiler);
    const double disabled = TimeChunkSeconds(engine, disabled_rng);
    engine.EnableProfiling(&sampled_profiler);
    const double sampled = TimeChunkSeconds(engine, sampled_rng);
    base_chunks.push_back(base);
    disabled_ratios.push_back(disabled / base);
    sampled_ratios.push_back(sampled / base);
  }
  engine.EnableProfiling(nullptr);

  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double base_ns = median(base_chunks) * 1e9 / kChunkQueries;
  const double disabled_ns = base_ns * median(disabled_ratios);
  const double sampled_ns = base_ns * median(sampled_ratios);
  const double overhead_disabled_pct =
      100.0 * (median(disabled_ratios) - 1.0);
  const double overhead_sampled_pct =
      100.0 * (median(sampled_ratios) - 1.0);
  const double uncovered = UncoveredFraction(sampled_profiler);

  std::printf("%10s %16s %10s\n", "config", "ns/query", "overhead");
  std::printf("%10s %16.0f %10s\n", "base", base_ns, "-");
  std::printf("%10s %16.0f %9.2f%%\n", "disabled", disabled_ns,
              overhead_disabled_pct);
  std::printf("%10s %16.0f %9.2f%%\n", "sampled", sampled_ns,
              overhead_sampled_pct);
  std::printf(
      "\nprofiler: %llu queries seen, %llu sampled, backend %s, "
      "phase coverage %.1f%%\n\n",
      (unsigned long long)sampled_profiler.queries(),
      (unsigned long long)sampled_profiler.sampled(),
      sampled_profiler.backend(), 100.0 * (1.0 - uncovered));

  const std::string collapsed = sampled_profiler.ToCollapsed();
  std::FILE* folded = std::fopen("BENCH_profile_collapsed.txt", "w");
  if (folded != nullptr) {
    std::fwrite(collapsed.data(), 1, collapsed.size(), folded);
    std::fclose(folded);
    std::printf("wrote BENCH_profile_collapsed.txt (%zu bytes)\n",
                collapsed.size());
  }

  using bench::BenchReport;
  BenchReport report("bench_profiling");
  report.SetHardwareProfile(hardware::HardwareProfile::Ibm4764());
  report.SetParam("num_pages", kNumPages);
  report.SetParam("page_size", static_cast<uint64_t>(kPageSize));
  report.SetParam("cache_pages", kCachePages);
  report.SetParam("chunk_queries", static_cast<uint64_t>(kChunkQueries));
  report.SetParam("chunks_per_config",
                  static_cast<uint64_t>(g_chunks_per_config));
  report.SetParam("sample_every", kSampleEvery);
  report.SetParam("time_base", std::string("wall_clock"));
  report.SetParam("backend", std::string(sampled_profiler.backend()));
  report.SetParam("collapsed_profile_file",
                  std::string("BENCH_profile_collapsed.txt"));
  report.AddMetric("base_ns_per_query", base_ns,
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("disabled_ns_per_query", disabled_ns,
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("sampled_ns_per_query", sampled_ns,
                   BenchReport::Direction::kNone, 0.0);
  report.AddBudgetMetric("overhead_disabled_pct", overhead_disabled_pct,
                         kBudgetDisabledPct);
  report.AddBudgetMetric("overhead_sampled_pct", overhead_sampled_pct,
                         kBudgetSampledPct);
  report.AddBudgetMetric("phase_uncovered_fraction", uncovered,
                         kMaxUncoveredFraction);
  if (report.WriteJson("BENCH_profiling.json")) {
    std::printf("wrote BENCH_profiling.json\n");
  }

  std::printf(
      "\nReading: the unsampled path costs one atomic increment, so the\n"
      "disabled overhead sits inside the %.0f%% budget; a sampled round\n"
      "adds one clock/counter read per phase boundary (%.0f%% budget).\n"
      "Coverage below %.0f%% would mean a phase escaped the Fig. 3 span\n"
      "vocabulary.\n",
      kBudgetDisabledPct, kBudgetSampledPct,
      100.0 * (1.0 - kMaxUncoveredFraction));
  return overhead_disabled_pct <= kBudgetDisabledPct &&
                 overhead_sampled_pct <= kBudgetSampledPct &&
                 uncovered <= kMaxUncoveredFraction
             ? 0
             : 1;
}
