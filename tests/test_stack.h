#ifndef SHPIR_TESTS_TEST_STACK_H_
#define SHPIR_TESTS_TEST_STACK_H_

#include <memory>
#include <vector>

#include "common/check.h"
#include "core/engine_stack.h"

namespace shpir::test {

/// An Ibm4764 stack over `disk` (by default an owned in-memory one),
/// traced into `trace` when one is given, and loaded with `pages`.
/// Aborts on error.
inline std::unique_ptr<core::EngineStack> LoadedStack(
    const core::CApproxPir::Options& options, uint64_t seed,
    const std::vector<storage::Page>& pages = {},
    storage::AccessTrace* trace = nullptr, storage::Disk* disk = nullptr) {
  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), seed, disk, trace);
  SHPIR_CHECK(stack.ok());
  SHPIR_CHECK_OK((*stack)->engine().Initialize(pages));
  return std::move(stack).value();
}

/// A zero-filled LoadedStack of n 16-byte pages with cache m and block
/// size k, for tests whose subject is the access pattern; `options`
/// supplies every other field.
inline std::unique_ptr<core::EngineStack> ZeroFilledStack(
    storage::AccessTrace* trace, uint64_t n, uint64_t m, uint64_t k,
    uint64_t seed, core::CApproxPir::Options options = {}) {
  options.num_pages = n;
  options.page_size = 16;
  options.cache_pages = m;
  options.block_size = k;
  return LoadedStack(options, seed, {}, trace);
}

}  // namespace shpir::test

#endif  // SHPIR_TESTS_TEST_STACK_H_
