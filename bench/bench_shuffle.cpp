// Oblivious initial shuffle: costs of the Batcher-network shuffle used
// to re-permute data already resident on the untrusted disk, versus the
// trusted bulk load (valid when the owner supplies plaintext). This is
// the DESIGN.md ablation on the initial permutation path.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/oblivious_shuffle.h"

namespace {

using namespace shpir;

void ShuffleCost(uint64_t n) {
  constexpr size_t kPageSize = 256;
  storage::MemoryDisk disk(n, storage::PageCipher::SealedSize(kPageSize));
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::Ibm4764(), &disk, kPageSize, n);
  SHPIR_CHECK(cpu.ok());
  // Preload sealed pages.
  for (uint64_t i = 0; i < n; ++i) {
    auto sealed = (*cpu)->SealPage(storage::Page(i, Bytes(kPageSize, 0)));
    SHPIR_CHECK(sealed.ok());
    SHPIR_CHECK_OK((*cpu)->WriteSlot(i, *sealed));
  }
  (*cpu)->cost().Reset();

  uint64_t exchanges = 0;
  core::BatcherNetwork(n, [&](uint64_t, uint64_t) { ++exchanges; });
  auto perm = core::ObliviousShuffle(**cpu, n);
  SHPIR_CHECK(perm.ok());
  const double seconds = (*cpu)->ElapsedSeconds();

  // The trusted bulk load touches each slot once, sequentially.
  const double bulk_seconds =
      static_cast<double>(n) * storage::PageCipher::SealedSize(kPageSize) *
          (1.0 / 100e6 + 1.0 / 80e6) +
      static_cast<double>(n) * kPageSize / 10e6 + 0.005;

  std::printf("%10llu %14llu %14.2f %14.3f %10.1fx\n",
              (unsigned long long)n, (unsigned long long)exchanges, seconds,
              bulk_seconds, seconds / bulk_seconds);
}

}  // namespace

int main() {
  std::printf(
      "Oblivious shuffle (Batcher network over sealed pages, 256B pages)\n"
      "vs trusted bulk load. Column 'simulated s' uses the Table 2 "
      "profile.\n\n");
  std::printf("%10s %14s %14s %14s %10s\n", "n", "exchanges", "shuffle s",
              "bulk-load s", "ratio");
  for (uint64_t n : {256ull, 1024ull, 4096ull}) {
    ShuffleCost(n);
  }
  std::printf(
      "\nThe O(n log^2 n) oblivious shuffle is the price of re-permuting\n"
      "without trusting the loader; the paper's scheme needs it only for\n"
      "offline maintenance (e.g. purging deleted pages, §4.3).\n");
  return 0;
}
