// Private k-nearest-neighbor search — the exact scenario of the
// paper's reference [23] (Papadopoulos et al., "Nearest neighbor search
// with strong location privacy"): the client walks a disk-resident
// R-tree with private page retrievals, so the LBS provider learns
// neither the query location nor the result.
//
//   ./nearest_neighbor

#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "core/engine_stack.h"
#include "crypto/secure_random.h"
#include "index/rtree.h"
#include "storage/access_trace.h"

int main() {
  using namespace shpir;

  // --- Owner: index 20,000 POIs into a packed R-tree -----------------
  constexpr size_t kPageSize = 1024;
  crypto::SecureRandom city(2026);
  std::vector<index::SpatialEntry> pois(20000);
  for (uint64_t i = 0; i < pois.size(); ++i) {
    pois[i] = index::SpatialEntry{
        static_cast<uint32_t>(city.UniformInt(1000000)),
        static_cast<uint32_t>(city.UniformInt(1000000)), i};
  }
  index::RTreeBuilder builder(kPageSize);
  auto pages = builder.Build(pois);
  SHPIR_CHECK(pages.ok());
  std::printf("%zu POIs packed into %zu R-tree pages "
              "(leaf cap %zu, fanout %zu)\n",
              pois.size(), pages->size(), builder.leaf_capacity(),
              builder.internal_capacity());

  // --- Server: host the index behind the secure hardware -------------
  core::CApproxPir::Options options;
  options.num_pages = pages->size();
  options.page_size = kPageSize;
  options.cache_pages = 64;
  options.privacy_c = 2.0;
  storage::AccessTrace trace;
  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), std::nullopt, nullptr,
      &trace);
  SHPIR_CHECK(stack.ok());
  core::CApproxPir& engine = (*stack)->engine();
  hardware::SecureCoprocessor& cpu = (*stack)->cpu();
  SHPIR_CHECK_OK(engine.Initialize(*pages));

  auto tree = index::RTree::Open(&engine);
  SHPIR_CHECK(tree.ok());

  // --- Client: "the 5 POIs nearest to me" -----------------------------
  const uint32_t user_x = 424242, user_y = 777777;
  const uint64_t before_fetches = (*tree)->retrievals();
  const auto t0 = cpu.ElapsedSeconds();
  auto nn = (*tree)->NearestNeighbors(user_x, user_y, 5);
  SHPIR_CHECK(nn.ok());
  const uint64_t fetches = (*tree)->retrievals() - before_fetches;
  const double seconds = cpu.ElapsedSeconds() - t0;

  std::printf("\n5 nearest POIs to the (undisclosed) location:\n");
  for (const auto& poi : *nn) {
    const double dx = static_cast<double>(poi.x) - user_x;
    const double dy = static_cast<double>(poi.y) - user_y;
    std::printf("  POI %-6llu at (%u, %u), distance %.0f\n",
                (unsigned long long)poi.value, poi.x, poi.y,
                std::sqrt(dx * dx + dy * dy));
  }
  std::printf("\nprivate page fetches: %llu (tree height %llu)\n",
              (unsigned long long)fetches,
              (unsigned long long)(*tree)->height());
  std::printf("simulated server time: %.0f ms (constant %d ms per fetch)\n",
              1000 * seconds,
              static_cast<int>(1000 * seconds / fetches));
  std::printf("the server saw %zu opaque accesses; with c = 2, no disk\n"
              "location it observed is more than twice as likely as any\n"
              "other to hold any particular index page.\n",
              trace.events().size());
  return 0;
}
