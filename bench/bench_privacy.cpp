// Empirical privacy: measures the relocation distribution of the
// running engine and compares it with the analytic model (Eqs. 1-5) —
// evidence the paper argues analytically, here verified end-to-end.
// Also runs the two design-choice ablations from DESIGN.md to show the
// mechanism's randomization is load-bearing.

#include <cstdio>

#include "analysis/privacy_audit.h"
#include "bench/bench_util.h"
#include "crypto/secure_random.h"

namespace {

using namespace shpir;

void Audit(const char* label, core::CApproxPir::Options options,
           uint64_t seed, uint64_t requests) {
  storage::AccessTrace trace;
  auto stack = bench::MakeStack(options, seed, &trace);
  crypto::SecureRandom workload(seed + 1000);
  const uint64_t n = options.num_pages;
  auto report = analysis::RunPrivacyAudit(
      stack->engine(), requests, [&]() { return workload.UniformInt(n); });
  SHPIR_CHECK(report.ok());
  std::printf("%-26s %6llu %6llu %10.3f %10.3f %8.3f %8.3f\n", label,
              (unsigned long long)stack->engine().block_size(),
              (unsigned long long)stack->engine().scan_period(),
              report->analytic_c, report->measured_c,
              report->max_relative_deviation, report->slot_entropy);
}

}  // namespace

int main() {
  std::printf(
      "Empirical privacy audit: measured relocation-frequency ratio vs\n"
      "the analytic c (Eq. 5), max per-bin deviation from the Eq. 2-4\n"
      "distribution, and within-block slot entropy (1.0 = uniform).\n\n");
  std::printf("%-26s %6s %6s %10s %10s %8s %8s\n", "configuration", "k", "T",
              "analytic", "measured", "maxdev", "slotent");

  core::CApproxPir::Options base;
  base.page_size = 32;

  // Healthy configurations at several privacy levels.
  {
    core::CApproxPir::Options o = base;
    o.num_pages = 64;
    o.cache_pages = 8;
    o.block_size = 16;  // T = 4, c ~ 1.49.
    Audit("n=64 m=8 k=16", o, 1, 30000);
  }
  {
    core::CApproxPir::Options o = base;
    o.num_pages = 128;
    o.cache_pages = 16;
    o.block_size = 16;  // T = 8, c ~ 1.57.
    Audit("n=128 m=16 k=16", o, 2, 50000);
  }
  {
    core::CApproxPir::Options o = base;
    o.num_pages = 128;
    o.cache_pages = 32;
    o.block_size = 8;  // T = 16, c ~ 1.61.
    Audit("n=128 m=32 k=8", o, 3, 80000);
  }

  // Ablations (DESIGN.md §5): each knob destroys a measured guarantee.
  {
    core::CApproxPir::Options o = base;
    o.num_pages = 64;
    o.cache_pages = 8;
    o.block_size = 16;
    o.ablation_skip_uniform_swap = true;
    Audit("ablate uniform swap", o, 4, 20000);
  }
  {
    core::CApproxPir::Options o = base;
    o.num_pages = 64;
    o.cache_pages = 8;
    o.block_size = 16;
    o.ablation_round_robin_eviction = true;
    Audit("ablate random eviction", o, 5, 20000);
  }

  std::printf(
      "\nReading: healthy rows show measured ~= analytic and slot entropy\n"
      "~1.0. 'ablate uniform swap' collapses slot entropy (evictions pile\n"
      "into one slot); 'ablate random eviction' makes residency times\n"
      "deterministic, so measured c is 0 (offsets never observed) or the\n"
      "deviation explodes — both randomizations are necessary.\n");
  return 0;
}
