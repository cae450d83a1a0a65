// Adversarial linkage attack (extension experiment): the server tries
// to link a query to the earlier query that evicted the same page, by
// matching the data-dependent extra read against its write log. The
// privacy parameter c bounds the relocation skew the attack exploits,
// so precision falls as privacy tightens (larger k / smaller c) and
// collapses at the full-scan end.

#include <cstdio>

#include "analysis/frequency_attack.h"
#include "analysis/linkage_attack.h"
#include "baselines/encrypted_store.h"
#include "bench/bench_util.h"
#include "crypto/secure_random.h"

namespace {

using namespace shpir;

void Attack(const char* workload_name, uint64_t n, uint64_t m, uint64_t k,
            uint64_t seed,
            const std::function<storage::PageId(crypto::SecureRandom&)>&
                pick) {
  core::CApproxPir::Options options;
  options.num_pages = n;
  options.page_size = 32;
  options.cache_pages = m;
  options.block_size = k;
  storage::AccessTrace trace;
  auto stack = bench::MakeStack(options, seed, &trace);
  crypto::SecureRandom workload(seed + 99);
  auto report = analysis::RunLinkageAttack(
      stack->engine(), trace, 6000, [&]() { return pick(workload); });
  SHPIR_CHECK(report.ok());
  std::printf("%-22s %5llu %7.3f %10.1f%% %10.1f%%\n", workload_name,
              (unsigned long long)k, stack->engine().achieved_privacy(),
              100.0 * report->coverage(), 100.0 * report->precision());
}

// §1's argument against encryption-only defenses, made concrete: a
// frequency-analysis adversary with a popularity prior identifies
// queries against a static encrypted layout but not against the
// relocating engine.
void FrequencyContrast() {
  constexpr uint64_t kN = 64;
  constexpr size_t kPageSize = 32;
  constexpr int kRequests = 20000;

  // Zipf prior shared by the workload and the adversary.
  std::vector<double> popularity(kN);
  double total = 0;
  for (uint64_t i = 0; i < kN; ++i) {
    popularity[i] = 1.0 / static_cast<double>(i + 1);
    total += popularity[i];
  }
  for (double& p : popularity) {
    p /= total;
  }
  auto draw = [&](crypto::SecureRandom& rng) -> storage::PageId {
    double x = rng.UniformDouble();
    for (uint64_t i = 0; i < kN; ++i) {
      x -= popularity[i];
      if (x <= 0) {
        return i;
      }
    }
    return kN - 1;
  };

  std::printf("\nFrequency-analysis contrast (Zipf workload, %d queries):\n",
              kRequests);

  // Static encrypted store: encryption alone.
  {
    storage::MemoryDisk disk(kN, storage::PageCipher::SealedSize(kPageSize));
    auto cpu = hardware::SecureCoprocessor::Create(
        hardware::HardwareProfile::Ibm4764(), &disk, kPageSize, 31);
    SHPIR_CHECK(cpu.ok());
    baselines::StaticEncryptedStore::Options options{kN, kPageSize};
    auto store =
        baselines::StaticEncryptedStore::Create(cpu->get(), options);
    SHPIR_CHECK(store.ok());
    SHPIR_CHECK_OK((*store)->Initialize({}));
    crypto::SecureRandom rng(32);
    std::vector<storage::Location> observed;
    std::vector<storage::PageId> truth;
    for (int i = 0; i < kRequests; ++i) {
      const storage::PageId id = draw(rng);
      SHPIR_CHECK((*store)->Retrieve(id).ok());
      observed.push_back((*store)->LocationOf(id));
      truth.push_back(id);
    }
    const auto report =
        analysis::RunFrequencyAttack(observed, truth, popularity);
    std::printf("  encrypted-static: %5.1f%% of queries identified\n",
                100.0 * report.accuracy());
  }

  // The c-approximate engine.
  {
    core::CApproxPir::Options options;
    options.num_pages = kN;
    options.page_size = kPageSize;
    options.cache_pages = 8;
    options.block_size = 8;
    storage::AccessTrace trace;
    auto stack = bench::MakeStack(options, 33, &trace);
    crypto::SecureRandom rng(34);
    const uint64_t k = stack->engine().block_size();
    std::vector<storage::Location> observed;
    std::vector<storage::PageId> truth;
    size_t cursor = trace.events().size();
    for (int i = 0; i < kRequests; ++i) {
      const storage::PageId id = draw(rng);
      SHPIR_CHECK(stack->engine().Retrieve(id).ok());
      truth.push_back(id);
      uint64_t reads = 0;
      for (; cursor < trace.events().size(); ++cursor) {
        const auto& event = trace.events()[cursor];
        if (event.op == storage::AccessEvent::Op::kRead) {
          ++reads;
          if (reads == k + 1) {
            observed.push_back(event.location);
          }
        }
      }
    }
    const auto report =
        analysis::RunFrequencyAttack(observed, truth, popularity);
    std::printf("  c-approx (c~1.6): %5.1f%% of queries identified "
                "(chance ~ %.1f%%)\n",
                100.0 * report.accuracy(), 100.0 / kN);
  }
}

}  // namespace

int main() {
  std::printf(
      "Linkage attack: adversary links each query's extra read to the\n"
      "most recent write of that location and guesses the requested page\n"
      "was the one evicted then. 6000 queries, n = 256, m = 8.\n\n");
  std::printf("%-22s %5s %7s %11s %11s\n", "workload", "k", "c",
              "coverage", "precision");

  auto uniform = [](crypto::SecureRandom& rng) -> storage::PageId {
    return rng.UniformInt(256);
  };
  // Privacy sweep: larger blocks -> smaller c -> weaker attack.
  for (uint64_t k : {4u, 8u, 16u, 32u, 64u, 128u}) {
    Attack("uniform", 256, 8, k, 1000 + k, uniform);
  }
  // Worst-case client behavior: immediate re-requests.
  auto hot = [](crypto::SecureRandom& rng) -> storage::PageId {
    return rng.UniformInt(10) < 8 ? rng.UniformInt(2)
                                  : rng.UniformInt(256);
  };
  for (uint64_t k : {8u, 64u}) {
    Attack("hot-pair (80%)", 256, 8, k, 2000 + k, hot);
  }

  std::printf(
      "\nReading: precision decays toward the random baseline as k grows\n"
      "(privacy parameter c -> 1). Clients that immediately re-request\n"
      "hot pages leak the most — matching the paper's guidance that the\n"
      "scheme suits applications tolerating approximate privacy, with c\n"
      "as the dial.\n");

  FrequencyContrast();
  return 0;
}
