#include "index/bplus_tree.h"

#include <gtest/gtest.h>

#include <map>
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

std::vector<std::pair<uint64_t, uint64_t>> MakeEntries(uint64_t n,
                                                       uint64_t stride = 3) {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t i = 0; i < n; ++i) {
    entries.emplace_back(i * stride + 10, i * 1000 + 1);
  }
  return entries;
}

/// In-memory PirEngine for testing the tree logic in isolation.
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

TEST(BPlusTreeBuilderTest, CapacitiesFitPageSize) {
  BPlusTreeBuilder builder(kPageSize);
  EXPECT_GE(builder.leaf_capacity(), 2u);
  EXPECT_GE(builder.internal_capacity(), 2u);
  // Leaf: header 11 + 16 per entry.
  EXPECT_EQ(builder.leaf_capacity(), (kPageSize - 11) / 16);
}

TEST(BPlusTreeBuilderTest, RejectsTinyPagesAndUnsortedInput) {
  BPlusTreeBuilder tiny(16);
  EXPECT_FALSE(tiny.Build({}).ok());
  BPlusTreeBuilder builder(kPageSize);
  EXPECT_FALSE(builder.Build({{5, 0}, {3, 0}}).ok());
  EXPECT_FALSE(builder.Build({{5, 0}, {5, 1}}).ok());
}

TEST(BPlusTreeBuilderTest, PagesFitAndIdsAreSequential) {
  BPlusTreeBuilder builder(kPageSize);
  Result<std::vector<Page>> pages = builder.Build(MakeEntries(500));
  ASSERT_TRUE(pages.ok());
  for (size_t i = 0; i < pages->size(); ++i) {
    EXPECT_EQ((*pages)[i].id, i);
    EXPECT_EQ((*pages)[i].data.size(), kPageSize);
  }
  EXPECT_GT(pages->size(), 500 / builder.leaf_capacity());
}

TEST(BPlusTreeTest, LookupFindsEveryKey) {
  BPlusTreeBuilder builder(kPageSize);
  const auto entries = MakeEntries(1000);
  Result<std::vector<Page>> pages = builder.Build(entries);
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Open(&engine);
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ((*tree)->num_keys(), 1000u);
  for (const auto& [key, value] : entries) {
    Result<std::optional<uint64_t>> found = (*tree)->Lookup(key);
    ASSERT_TRUE(found.ok());
    ASSERT_TRUE(found->has_value()) << "key " << key;
    EXPECT_EQ(**found, value) << "key " << key;
  }
}

TEST(BPlusTreeTest, LookupMissesReturnNullopt) {
  BPlusTreeBuilder builder(kPageSize);
  Result<std::vector<Page>> pages = builder.Build(MakeEntries(200));
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Open(&engine);
  ASSERT_TRUE(tree.ok());
  // Keys are 10, 13, 16, ...; 11/12 are absent, as is anything < 10.
  for (uint64_t key : {0ull, 9ull, 11ull, 12ull, 10000000ull}) {
    Result<std::optional<uint64_t>> found = (*tree)->Lookup(key);
    ASSERT_TRUE(found.ok());
    EXPECT_FALSE(found->has_value()) << "key " << key;
  }
}

TEST(BPlusTreeTest, LookupCostIsHeightRegardlessOfOutcome) {
  BPlusTreeBuilder builder(kPageSize);
  Result<std::vector<Page>> pages = builder.Build(MakeEntries(1000));
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Open(&engine);
  ASSERT_TRUE(tree.ok());
  const uint64_t height = (*tree)->height();
  const uint64_t before_hit = (*tree)->retrievals();
  ASSERT_TRUE((*tree)->Lookup(10).ok());
  const uint64_t hit_cost = (*tree)->retrievals() - before_hit;
  const uint64_t before_miss = (*tree)->retrievals();
  ASSERT_TRUE((*tree)->Lookup(11).ok());
  const uint64_t miss_cost = (*tree)->retrievals() - before_miss;
  EXPECT_EQ(hit_cost, height);
  EXPECT_EQ(miss_cost, height);
}

TEST(BPlusTreeTest, RangeScan) {
  BPlusTreeBuilder builder(kPageSize);
  const auto entries = MakeEntries(300);
  Result<std::vector<Page>> pages = builder.Build(entries);
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Open(&engine);
  ASSERT_TRUE(tree.ok());

  Result<std::vector<std::pair<uint64_t, uint64_t>>> scan =
      (*tree)->RangeScan(100, 200);
  ASSERT_TRUE(scan.ok());
  std::vector<std::pair<uint64_t, uint64_t>> expected;
  for (const auto& e : entries) {
    if (e.first >= 100 && e.first <= 200) {
      expected.push_back(e);
    }
  }
  EXPECT_EQ(*scan, expected);
}

TEST(BPlusTreeTest, RangeScanEdgeCases) {
  BPlusTreeBuilder builder(kPageSize);
  const auto entries = MakeEntries(50);
  Result<std::vector<Page>> pages = builder.Build(entries);
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Open(&engine);
  ASSERT_TRUE(tree.ok());
  // Empty range.
  EXPECT_TRUE((*tree)->RangeScan(5, 3)->empty());
  // Range before all keys.
  EXPECT_TRUE((*tree)->RangeScan(0, 9)->empty());
  // Range past all keys.
  EXPECT_TRUE((*tree)->RangeScan(100000, 200000)->empty());
  // Full range.
  EXPECT_EQ((*tree)->RangeScan(0, UINT64_MAX)->size(), entries.size());
}

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTreeBuilder builder(kPageSize);
  Result<std::vector<Page>> pages = builder.Build({});
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Open(&engine);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->num_keys(), 0u);
  EXPECT_FALSE((*tree)->Lookup(10)->has_value());
  EXPECT_TRUE((*tree)->RangeScan(0, UINT64_MAX)->empty());
}

TEST(BPlusTreeTest, SingleEntry) {
  BPlusTreeBuilder builder(kPageSize);
  Result<std::vector<Page>> pages = builder.Build({{7, 77}});
  ASSERT_TRUE(pages.ok());
  PlainEngine engine(*pages);
  Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Open(&engine);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(**(*tree)->Lookup(7), 77u);
  EXPECT_FALSE((*tree)->Lookup(8)->has_value());
}

TEST(BPlusTreeTest, OpenRejectsNonTreeData) {
  std::vector<Page> pages = {Page(0, Bytes(kPageSize, 0xab))};
  PlainEngine engine(std::move(pages));
  EXPECT_FALSE(BPlusTree::Open(&engine).ok());
  EXPECT_FALSE(BPlusTree::Open(nullptr).ok());
}

TEST(BPlusTreeTest, WorksOverCApproxPir) {
  // End-to-end: the tree pages served through the paper's engine.
  BPlusTreeBuilder builder(kPageSize);
  const auto entries = MakeEntries(200);
  Result<std::vector<Page>> pages = builder.Build(entries);
  ASSERT_TRUE(pages.ok());

  core::CApproxPir::Options options;
  options.num_pages = pages->size();
  options.page_size = kPageSize;
  options.cache_pages = 8;
  options.block_size = 4;
  auto stack = test::LoadedStack(options, 42, *pages);
  core::CApproxPir& engine = stack->engine();

  Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Open(&engine);
  ASSERT_TRUE(tree.ok()) << tree.status();
  crypto::SecureRandom rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto& [key, value] = entries[rng.UniformInt(entries.size())];
    Result<std::optional<uint64_t>> found = (*tree)->Lookup(key);
    ASSERT_TRUE(found.ok());
    ASSERT_TRUE(found->has_value());
    EXPECT_EQ(**found, value);
  }
  // Range scans also work through the private engine.
  Result<std::vector<std::pair<uint64_t, uint64_t>>> scan =
      (*tree)->RangeScan(10, 100);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->empty());
}

}  // namespace
}  // namespace shpir::index
