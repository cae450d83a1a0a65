#include "index/hash_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "test_stack.h"

namespace shpir::index {
namespace {

using storage::Page;

constexpr size_t kPageSize = 128;

/// Serves pages straight from memory (tests index logic in isolation).
class PlainEngine : public core::PirEngine {
 public:
  explicit PlainEngine(std::vector<Page> pages) : pages_(std::move(pages)) {}

  Result<Bytes> Retrieve(storage::PageId id) override {
    if (id >= pages_.size()) {
      return NotFoundError("no such page");
    }
    return pages_[id].data;
  }
  uint64_t num_pages() const override { return pages_.size(); }
  size_t page_size() const override { return kPageSize; }
  const char* name() const override { return "plain"; }

 private:
  std::vector<Page> pages_;
};

std::vector<std::pair<uint64_t, uint64_t>> MakeEntries(uint64_t n) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t i = 0; i < n; ++i) {
    entries.emplace_back(i * 1000003 + 17, i + 1);
  }
  return entries;
}

TEST(HashIndexTest, LookupFindsEveryKey) {
  HashIndexBuilder builder(kPageSize);
  const auto entries = MakeEntries(500);
  auto pages = builder.Build(entries);
  ASSERT_TRUE(pages.ok()) << pages.status();
  PlainEngine engine(*pages);
  auto index = HashIndex::Open(&engine);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->num_keys(), 500u);
  for (const auto& [key, value] : entries) {
    auto found = (*index)->Lookup(key);
    ASSERT_TRUE(found.ok());
    ASSERT_TRUE(found->has_value()) << key;
    EXPECT_EQ(**found, value);
  }
}

TEST(HashIndexTest, MissesReturnNullopt) {
  HashIndexBuilder builder(kPageSize);
  auto pages = builder.Build(MakeEntries(100));
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  auto index = HashIndex::Open(&engine);
  ASSERT_TRUE(index.ok());
  for (uint64_t key : {0ull, 1ull, 999999999ull}) {
    auto found = (*index)->Lookup(key);
    ASSERT_TRUE(found.ok());
    EXPECT_FALSE(found->has_value()) << key;
  }
}

TEST(HashIndexTest, FixedProbeCountHitOrMiss) {
  HashIndexBuilder builder(kPageSize, /*probe_width=*/2);
  const auto entries = MakeEntries(200);
  auto pages = builder.Build(entries);
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  auto index = HashIndex::Open(&engine);
  ASSERT_TRUE(index.ok());
  const uint64_t before_hit = (*index)->retrievals();
  ASSERT_TRUE((*index)->Lookup(entries[0].first).ok());
  const uint64_t hit_cost = (*index)->retrievals() - before_hit;
  const uint64_t before_miss = (*index)->retrievals();
  ASSERT_TRUE((*index)->Lookup(424242).ok());
  const uint64_t miss_cost = (*index)->retrievals() - before_miss;
  EXPECT_EQ(hit_cost, 2u);
  EXPECT_EQ(miss_cost, 2u);
}

TEST(HashIndexTest, ProbeWidthOne) {
  HashIndexBuilder builder(kPageSize, /*probe_width=*/1);
  const auto entries = MakeEntries(50);
  auto pages = builder.Build(entries);
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  auto index = HashIndex::Open(&engine);
  ASSERT_TRUE(index.ok());
  for (const auto& [key, value] : entries) {
    EXPECT_EQ(**(*index)->Lookup(key), value);
  }
}

TEST(HashIndexTest, EmptyIndex) {
  HashIndexBuilder builder(kPageSize);
  auto pages = builder.Build({});
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  auto index = HashIndex::Open(&engine);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE((*index)->Lookup(1)->has_value());
}

TEST(HashIndexTest, RejectsDuplicatesAndTinyPages) {
  HashIndexBuilder builder(kPageSize);
  EXPECT_FALSE(builder.Build({{1, 1}, {1, 2}}).ok());
  HashIndexBuilder tiny(8);
  EXPECT_FALSE(tiny.Build({{1, 1}}).ok());
}

TEST(HashIndexTest, OpenRejectsGarbage) {
  std::vector<Page> pages = {Page(0, Bytes(kPageSize, 0x42))};
  PlainEngine engine(std::move(pages));
  EXPECT_FALSE(HashIndex::Open(&engine).ok());
  EXPECT_FALSE(HashIndex::Open(nullptr).ok());
}

TEST(HashIndexTest, WorksOverCApproxPir) {
  HashIndexBuilder builder(kPageSize);
  const auto entries = MakeEntries(300);
  auto pages = builder.Build(entries);
  ASSERT_TRUE(pages.ok());

  core::CApproxPir::Options options;
  options.num_pages = pages->size();
  options.page_size = kPageSize;
  options.cache_pages = 16;
  options.privacy_c = 2.0;
  auto stack = test::LoadedStack(options, 13, *pages);
  core::CApproxPir& engine = stack->engine();

  auto index = HashIndex::Open(&engine);
  ASSERT_TRUE(index.ok());
  crypto::SecureRandom rng(14);
  for (int i = 0; i < 100; ++i) {
    const auto& [key, value] = entries[rng.UniformInt(entries.size())];
    auto found = (*index)->Lookup(key);
    ASSERT_TRUE(found.ok());
    ASSERT_TRUE(found->has_value());
    EXPECT_EQ(**found, value);
  }
}

}  // namespace
}  // namespace shpir::index
