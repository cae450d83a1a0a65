// Property-style parameterized sweep: the engine must deliver correct
// payloads and exact constant per-query cost for every (n, m, k)
// geometry, including awkward ones (k = 1, m barely 2, n not a multiple
// of k, k close to n/2).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "test_stack.h"

namespace shpir::core {
namespace {

constexpr size_t kPageSize = 16;
constexpr size_t kSealedSize = storage::PageCipher::SealedSize(kPageSize);

using Geometry = std::tuple<uint64_t, uint64_t, uint64_t>;  // n, m, k.

class EngineSweepTest : public ::testing::TestWithParam<Geometry> {};

Bytes PayloadFor(storage::PageId id) {
  Bytes data(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    data[i] = static_cast<uint8_t>(id * 37 + i);
  }
  return data;
}

TEST_P(EngineSweepTest, CorrectnessAndConstantCost) {
  const auto [n, m, k] = GetParam();
  CApproxPir::Options options;
  options.num_pages = n;
  options.page_size = kPageSize;
  options.cache_pages = m;
  options.block_size = k;
  std::vector<storage::Page> pages;
  for (storage::PageId id = 0; id < n; ++id) {
    pages.emplace_back(id, PayloadFor(id));
  }
  auto stack = test::LoadedStack(options, n * 1000 + m * 10 + k, pages);
  core::CApproxPir& engine = stack->engine();
  hardware::SecureCoprocessor& cpu = stack->cpu();

  crypto::SecureRandom rng(n + m + k);
  auto prev = cpu.cost().Snapshot();
  const uint64_t queries = 300;
  for (uint64_t i = 0; i < queries; ++i) {
    const storage::PageId id = rng.UniformInt(n);
    Result<Bytes> data = engine.Retrieve(id);
    ASSERT_TRUE(data.ok()) << "query " << i;
    ASSERT_EQ(*data, PayloadFor(id)) << "query " << i << " id " << id;
    const auto now = cpu.cost().Snapshot();
    const auto delta = now - prev;
    prev = now;
    ASSERT_EQ(delta.seeks, 4u) << i;
    ASSERT_EQ(delta.disk_bytes, 2 * (k + 1) * kSealedSize) << i;
  }

  // pageMap invariant: uncached locations form a permutation.
  const uint64_t id_space =
      engine.disk_slots() + engine.cache_pages();
  std::set<uint64_t> locations;
  uint64_t cached = 0;
  for (storage::PageId id = 0; id < id_space; ++id) {
    if (engine.DebugIsCached(id)) {
      ++cached;
    } else {
      Result<storage::Location> loc = engine.DebugLocation(id);
      ASSERT_TRUE(loc.ok());
      ASSERT_TRUE(locations.insert(*loc).second);
    }
  }
  EXPECT_EQ(cached, m);
  EXPECT_EQ(locations.size(), engine.disk_slots());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, EngineSweepTest,
    ::testing::Values(
        Geometry{5, 2, 1},     // Minimal everything.
        Geometry{7, 2, 3},     // n not a multiple of k.
        Geometry{16, 2, 8},    // Exactly two blocks.
        Geometry{30, 15, 3},   // Cache half the database.
        Geometry{33, 3, 11},   // Odd sizes.
        Geometry{64, 4, 16},
        Geometry{100, 10, 7},  // Padding needed (100 -> 105).
        Geometry{128, 32, 2},  // Long scan period.
        Geometry{200, 2, 64},  // Tiny cache, big blocks.
        Geometry{256, 64, 32}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "m";
      name += std::to_string(std::get<1>(info.param));
      name += "k";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

}  // namespace
}  // namespace shpir::core
