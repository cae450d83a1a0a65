// Heap allocations per steady round. After a warm-up, a Retrieve or a
// Modify on an engine over a MemoryDisk, with no observability
// attached, allocates one buffer: Retrieve's copy of the answer, or the
// payload Modify takes by value. The round reads, opens and re-seals
// its k+1 pages in buffers the engine keeps across rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "test_stack.h"

// Global allocation counter. Counting operator new is process-wide, so
// each measured region runs one engine call and nothing else.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// None of the three is inlined: gcc's -Wmismatched-new-delete would
// otherwise pair a malloc or free it sees inside one of them with the
// other operator at a call site in gtest's or the library's code.
[[gnu::noinline]] void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace shpir::core {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

class RoundAllocationTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RoundAllocationTest, SteadyRoundsAllocateOnlyTheirAnswer) {
  const size_t page_size = GetParam();
  CApproxPir::Options options;
  options.num_pages = 1000;
  options.page_size = page_size;
  options.cache_pages = 32;
  options.block_size = 24;
  const auto stack = test::LoadedStack(options, /*seed=*/27);
  CApproxPir& engine = stack->engine();
  crypto::SecureRandom rng(28);
  // Two full scans size the kept buffers and cycle pages through the
  // cache.
  for (uint64_t i = 0; i < 2 * engine.scan_period(); ++i) {
    ASSERT_TRUE(engine.Retrieve(rng.UniformInt(options.num_pages)).ok());
    ASSERT_TRUE(engine
                    .Modify(rng.UniformInt(options.num_pages),
                            Bytes(page_size, 0x5a))
                    .ok());
  }

  constexpr uint64_t kCalls = 1000;
  uint64_t most = 0;
  uint64_t total = 0;
  for (uint64_t i = 0; i < kCalls; ++i) {
    const storage::PageId id = rng.UniformInt(options.num_pages);
    const uint64_t before = Allocations();
    const Result<Bytes> answer = engine.Retrieve(id);
    const uint64_t made = Allocations() - before;
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    most = std::max(most, made);
    total += made;
  }
  EXPECT_LE(most, 1u) << "Retrieve, B = " << page_size;
  // The counter sees each answer's copy, so it is not asleep.
  EXPECT_EQ(total, kCalls) << "Retrieve, B = " << page_size;

  most = 0;
  total = 0;
  for (uint64_t i = 0; i < kCalls; ++i) {
    const storage::PageId id = rng.UniformInt(options.num_pages);
    const uint64_t before = Allocations();
    const Status status =
        engine.Modify(id, Bytes(page_size, static_cast<uint8_t>(i)));
    const uint64_t made = Allocations() - before;
    ASSERT_TRUE(status.ok()) << status.ToString();
    most = std::max(most, made);
    total += made;
  }
  EXPECT_LE(most, 1u) << "Modify, B = " << page_size;
  EXPECT_EQ(total, kCalls) << "Modify, B = " << page_size;
}

INSTANTIATE_TEST_SUITE_P(
    PageSizes, RoundAllocationTest, ::testing::Values(256, 1024),
    [](const ::testing::TestParamInfo<size_t>& info) {
      std::string name = "B";
      name += std::to_string(info.param);
      return name;
    });

}  // namespace
}  // namespace shpir::core
