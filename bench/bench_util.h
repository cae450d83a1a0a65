#ifndef SHPIR_BENCH_BENCH_UTIL_H_
#define SHPIR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/engine_stack.h"
#include "hardware/profile.h"
#include "storage/access_trace.h"

namespace shpir::bench {

/// Prints the paper's Table 2 so every bench is self-describing.
inline void PrintTable2(const hardware::HardwareProfile& profile) {
  std::printf("Table 2 system specification:\n");
  std::printf("  disk seek time (ts)          %.0f ms\n",
              profile.seek_time_s * 1000);
  std::printf("  disk read/write (rd)         %.0f MB/s\n",
              profile.disk_rate / 1e6);
  std::printf("  secure hw link (rl)          %.0f MB/s\n",
              profile.link_rate / 1e6);
  std::printf("  encryption/decryption (renc) %.0f MB/s\n",
              profile.crypto_rate / 1e6);
  std::printf("  secure storage               %.0f MB\n\n",
              static_cast<double>(profile.secure_memory_bytes) / 1e6);
}

/// An Ibm4764 stack over an in-memory disk, traced into `trace` (unowned;
/// must outlive the stack) unless it is null, and loaded with `pages`
/// (zero-filled by default). Aborts on error.
inline std::unique_ptr<core::EngineStack> MakeStack(
    const core::CApproxPir::Options& options, uint64_t seed,
    storage::AccessTrace* trace,
    const std::vector<storage::Page>& pages = {}) {
  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), seed, nullptr, trace);
  SHPIR_CHECK(stack.ok());
  SHPIR_CHECK_OK((*stack)->engine().Initialize(pages));
  return std::move(stack).value();
}

}  // namespace shpir::bench

#endif  // SHPIR_BENCH_BENCH_UTIL_H_
