// Location privacy (the paper's motivating LBS scenario, cf. [23]):
// a mobile user asks "which points of interest are near me?" without
// the server learning where the user is.
//
// POIs are indexed by a Z-order (Morton) code of their grid cell in a
// B+-tree whose nodes are database pages; the client walks the index
// and scans the relevant cells with private page retrievals only.
//
//   ./location_privacy

#include <cstdio>
#include <vector>

#include "common/check.h"
#include "core/engine_stack.h"
#include "crypto/secure_random.h"
#include "index/bplus_tree.h"
#include "storage/access_trace.h"

namespace {

// Interleaves the low 16 bits of x and y into a Z-order code.
uint64_t Morton(uint32_t x, uint32_t y) {
  uint64_t code = 0;
  for (int bit = 0; bit < 16; ++bit) {
    code |= static_cast<uint64_t>((x >> bit) & 1) << (2 * bit);
    code |= static_cast<uint64_t>((y >> bit) & 1) << (2 * bit + 1);
  }
  return code;
}

}  // namespace

int main() {
  using namespace shpir;

  // --- Owner side: build the POI index -------------------------------
  constexpr uint32_t kGrid = 64;           // 64x64 city grid.
  constexpr size_t kPageSize = 256;        // Index node size.
  crypto::SecureRandom poi_rng(2024);

  // One POI per busy cell: key = Morton(cell), value = POI id.
  std::vector<std::pair<uint64_t, uint64_t>> pois;
  for (uint32_t x = 0; x < kGrid; ++x) {
    for (uint32_t y = 0; y < kGrid; ++y) {
      if (poi_rng.UniformInt(4) == 0) {  // ~25% of cells have a POI.
        pois.emplace_back(Morton(x, y), (static_cast<uint64_t>(x) << 32) | y);
      }
    }
  }
  std::sort(pois.begin(), pois.end());

  index::BPlusTreeBuilder builder(kPageSize);
  auto tree_pages = builder.Build(pois);
  SHPIR_CHECK(tree_pages.ok());
  std::printf("indexed %zu POIs into %zu index pages\n", pois.size(),
              tree_pages->size());

  // --- Server side: host the index behind the secure hardware --------
  core::CApproxPir::Options options;
  options.num_pages = tree_pages->size();
  options.page_size = kPageSize;
  options.cache_pages = 32;
  options.privacy_c = 2.0;
  storage::AccessTrace trace;
  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), std::nullopt, nullptr,
      &trace);
  SHPIR_CHECK(stack.ok());
  core::CApproxPir& engine = (*stack)->engine();
  SHPIR_CHECK_OK(engine.Initialize(*tree_pages));

  auto tree = index::BPlusTree::Open(&engine);
  SHPIR_CHECK(tree.ok());

  // --- Client side: "what's near (x, y)?" ----------------------------
  // The user's location is never sent anywhere: the client turns the
  // neighborhood into Morton ranges and privately scans them.
  const uint32_t user_x = 17, user_y = 42;
  std::printf("user at cell (%u, %u) — never disclosed\n\n", user_x, user_y);

  uint64_t found = 0;
  const uint64_t before = (*tree)->retrievals();
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      const uint32_t cx = user_x + static_cast<uint32_t>(dx);
      const uint32_t cy = user_y + static_cast<uint32_t>(dy);
      const uint64_t code = Morton(cx, cy);
      auto hits = (*tree)->RangeScan(code, code);
      SHPIR_CHECK(hits.ok());
      for (const auto& [key, value] : *hits) {
        std::printf("  POI in cell (%llu, %llu)\n",
                    (unsigned long long)(value >> 32),
                    (unsigned long long)(value & 0xffffffff));
        ++found;
      }
    }
  }
  const uint64_t lookups = (*tree)->retrievals() - before;

  std::printf("\n%llu POIs found in the 3x3 neighborhood\n",
              (unsigned long long)found);
  std::printf("private page retrievals issued: %llu\n",
              (unsigned long long)lookups);
  std::printf("simulated server time: %.1f ms\n",
              1000.0 * (*stack)->cpu().ElapsedSeconds());
  std::printf("server's view: %zu opaque accesses — every query reads the "
              "next round-robin block plus one page,\nso cells near the "
              "user are indistinguishable from cells anywhere else.\n",
              trace.events().size());
  return 0;
}
