// Private keyword search (the paper's web-search motivation, §1):
// a user looks up terms in an inverted index without the search engine
// learning the terms — no more "AOL searcher no. 4417749" incidents.
//
// The dictionary maps hashed keywords to posting-list heads stored in a
// B+-tree served over the c-approximate PIR engine.
//
//   ./keyword_search

#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/engine_stack.h"
#include "crypto/sha256.h"
#include "index/bplus_tree.h"

namespace {

uint64_t KeywordKey(const std::string& word) {
  const auto digest = shpir::crypto::Sha256::Hash(shpir::ByteSpan(
      reinterpret_cast<const uint8_t*>(word.data()), word.size()));
  return shpir::LoadLE64(digest.data());
}

}  // namespace

int main() {
  using namespace shpir;

  // --- Owner: build the inverted index -------------------------------
  const std::vector<std::pair<std::string, uint64_t>> corpus = {
      {"arthritis", 1001}, {"bankruptcy", 1002}, {"chemotherapy", 1003},
      {"divorce", 1004},   {"epilepsy", 1005},   {"foreclosure", 1006},
      {"gambling", 1007},  {"hepatitis", 1008},  {"insomnia", 1009},
      {"jobless", 1010},   {"migraine", 1011},   {"pregnancy", 1012},
  };
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (const auto& [word, doc] : corpus) {
    entries.emplace_back(KeywordKey(word), doc);
  }
  std::sort(entries.begin(), entries.end());

  constexpr size_t kPageSize = 128;
  index::BPlusTreeBuilder builder(kPageSize);
  auto pages = builder.Build(entries);
  SHPIR_CHECK(pages.ok());

  // --- Server: host behind the secure hardware -----------------------
  core::CApproxPir::Options options;
  options.num_pages = pages->size();
  options.page_size = kPageSize;
  options.cache_pages = 8;
  options.block_size = 4;
  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), std::nullopt);
  SHPIR_CHECK(stack.ok());
  core::CApproxPir& engine = (*stack)->engine();
  SHPIR_CHECK_OK(engine.Initialize(*pages));

  auto tree = index::BPlusTree::Open(&engine);
  SHPIR_CHECK(tree.ok());

  // --- Client: sensitive searches ------------------------------------
  for (const std::string query : {"chemotherapy", "foreclosure", "vacation"}) {
    auto result = (*tree)->Lookup(KeywordKey(query));
    SHPIR_CHECK(result.ok());
    if (result->has_value()) {
      std::printf("'%s' -> document %llu\n", query.c_str(),
                  (unsigned long long)**result);
    } else {
      std::printf("'%s' -> no results\n", query.c_str());
    }
  }

  std::printf("\nprivate retrievals: %llu (%llu per lookup — hits and "
              "misses cost the same)\n",
              (unsigned long long)(*tree)->retrievals(),
              (unsigned long long)(*tree)->height());
  std::printf("simulated server time: %.1f ms\n",
              1000.0 * (*stack)->cpu().ElapsedSeconds());
  return 0;
}
