// Private index traversal costs (the paper's motivating workload, cf.
// [23]): B+-tree lookups where every node fetch is a private page
// retrieval. Reports retrievals per lookup and the simulated response
// time under the Table 2 profile for several index sizes.

#include <cstdio>

#include "bench/bench_util.h"
#include "crypto/secure_random.h"
#include "index/bplus_tree.h"

namespace {

using namespace shpir;

void IndexCost(uint64_t num_keys) {
  constexpr size_t kPageSize = 1024;
  index::BPlusTreeBuilder builder(kPageSize);
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t i = 0; i < num_keys; ++i) {
    entries.emplace_back(i * 7 + 3, i);
  }
  auto pages = builder.Build(entries);
  SHPIR_CHECK(pages.ok());

  core::CApproxPir::Options options;
  options.num_pages = pages->size();
  options.page_size = kPageSize;
  options.cache_pages = std::max<uint64_t>(16, pages->size() / 16);
  options.privacy_c = 2.0;
  auto stack = bench::MakeStack(options, num_keys, nullptr, *pages);
  core::CApproxPir& engine = stack->engine();
  hardware::SecureCoprocessor& cpu = stack->cpu();

  auto tree = index::BPlusTree::Open(&engine);
  SHPIR_CHECK(tree.ok());

  crypto::SecureRandom rng(9);
  constexpr int kLookups = 50;
  const auto before = cpu.cost().Snapshot();
  const uint64_t retrievals_before = (*tree)->retrievals();
  for (int i = 0; i < kLookups; ++i) {
    auto result =
        (*tree)->Lookup(entries[rng.UniformInt(entries.size())].first);
    SHPIR_CHECK(result.ok());
    SHPIR_CHECK(result->has_value());
  }
  const auto delta = cpu.cost().Snapshot() - before;
  const double ms_per_lookup =
      1000.0 * hardware::CostAccountant::Seconds(delta, cpu.profile()) /
      kLookups;
  const double fetches =
      static_cast<double>((*tree)->retrievals() - retrievals_before) /
      kLookups;
  std::printf("%10llu %10zu %8llu %10llu %12.1f %14.1f\n",
              (unsigned long long)num_keys, pages->size(),
              (unsigned long long)(*tree)->height(),
              (unsigned long long)engine.block_size(), fetches,
              ms_per_lookup);
}

}  // namespace

int main() {
  std::printf(
      "Private B+-tree lookups over the c-approximate engine (1KB index\n"
      "pages, c = 2, cache = pages/16). One private retrieval per level;\n"
      "hits and misses cost the same.\n\n");
  std::printf("%10s %10s %8s %10s %12s %14s\n", "keys", "pages", "height",
              "k", "fetch/query", "sim ms/query");
  for (uint64_t keys : {1000ull, 10000ull, 50000ull}) {
    IndexCost(keys);
  }
  std::printf(
      "\nThis reproduces the shape of [23]'s finding that index traversal\n"
      "multiplies the per-page PIR cost by the tree height — and why a\n"
      "constant, low per-page cost matters.\n");
  return 0;
}
