#include "index/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "test_stack.h"

namespace shpir::index {
namespace {

using storage::Page;

constexpr size_t kPageSize = 256;

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

std::vector<SpatialEntry> RandomPoints(uint64_t n, uint64_t seed,
                                       uint32_t extent = 10000) {
  crypto::SecureRandom rng(seed);
  std::vector<SpatialEntry> points(n);
  for (uint64_t i = 0; i < n; ++i) {
    points[i] = SpatialEntry{static_cast<uint32_t>(rng.UniformInt(extent)),
                             static_cast<uint32_t>(rng.UniformInt(extent)),
                             i};
  }
  return points;
}

std::unique_ptr<RTree> BuildTree(const std::vector<SpatialEntry>& points,
                                 std::unique_ptr<PlainEngine>& engine_out) {
  RTreeBuilder builder(kPageSize);
  auto pages = builder.Build(points);
  SHPIR_CHECK(pages.ok());
  engine_out = std::make_unique<PlainEngine>(std::move(pages).value());
  auto tree = RTree::Open(engine_out.get());
  SHPIR_CHECK(tree.ok());
  return std::move(tree).value();
}

TEST(RTreeTest, RangeSearchMatchesBruteForce) {
  const auto points = RandomPoints(2000, 1);
  std::unique_ptr<PlainEngine> engine;
  auto tree = BuildTree(points, engine);
  EXPECT_EQ(tree->num_entries(), 2000u);
  crypto::SecureRandom rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t x1 = rng.UniformInt(10000), x2 = rng.UniformInt(10000);
    const uint32_t y1 = rng.UniformInt(10000), y2 = rng.UniformInt(10000);
    const Rect window{std::min(x1, x2), std::min(y1, y2), std::max(x1, x2),
                      std::max(y1, y2)};
    auto found = tree->RangeSearch(window);
    ASSERT_TRUE(found.ok());
    std::vector<uint64_t> got;
    for (const auto& e : *found) {
      got.push_back(e.value);
    }
    std::vector<uint64_t> expected;
    for (const auto& p : points) {
      if (window.Contains(p.x, p.y)) {
        expected.push_back(p.value);
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(RTreeTest, NearestNeighborsMatchBruteForce) {
  const auto points = RandomPoints(1500, 3);
  std::unique_ptr<PlainEngine> engine;
  auto tree = BuildTree(points, engine);
  crypto::SecureRandom rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t qx = rng.UniformInt(10000);
    const uint32_t qy = rng.UniformInt(10000);
    const size_t k = 1 + rng.UniformInt(10);
    auto found = tree->NearestNeighbors(qx, qy, k);
    ASSERT_TRUE(found.ok());
    ASSERT_EQ(found->size(), k);
    // Brute-force distances.
    auto dist2 = [&](const SpatialEntry& p) {
      const double dx = static_cast<double>(p.x) - qx;
      const double dy = static_cast<double>(p.y) - qy;
      return dx * dx + dy * dy;
    };
    std::vector<double> all;
    for (const auto& p : points) {
      all.push_back(dist2(p));
    }
    std::sort(all.begin(), all.end());
    for (size_t i = 0; i < k; ++i) {
      EXPECT_DOUBLE_EQ(dist2((*found)[i]), all[i])
          << "trial " << trial << " rank " << i;
    }
  }
}

TEST(RTreeTest, NearestNeighborVisitsFewPages) {
  const auto points = RandomPoints(5000, 5);
  std::unique_ptr<PlainEngine> engine;
  auto tree = BuildTree(points, engine);
  const uint64_t before = tree->retrievals();
  ASSERT_TRUE(tree->NearestNeighbors(5000, 5000, 5).ok());
  const uint64_t fetched = tree->retrievals() - before;
  // Branch-and-bound should touch a tiny fraction of the index.
  EXPECT_LT(fetched, 30u);
  EXPECT_GE(fetched, tree->height());
}

TEST(RTreeTest, DegenerateCases) {
  std::unique_ptr<PlainEngine> engine;
  // Empty.
  auto empty = BuildTree({}, engine);
  EXPECT_EQ(empty->num_entries(), 0u);
  EXPECT_TRUE(empty->RangeSearch(Rect{0, 0, 100, 100})->empty());
  EXPECT_TRUE(empty->NearestNeighbors(1, 1, 3)->empty());
  // Single point.
  std::unique_ptr<PlainEngine> engine2;
  auto one = BuildTree({SpatialEntry{7, 9, 42}}, engine2);
  auto nn = one->NearestNeighbors(0, 0, 1);
  ASSERT_TRUE(nn.ok());
  ASSERT_EQ(nn->size(), 1u);
  EXPECT_EQ((*nn)[0].value, 42u);
  // Duplicate coordinates.
  std::unique_ptr<PlainEngine> engine3;
  auto dup = BuildTree(
      {SpatialEntry{5, 5, 1}, SpatialEntry{5, 5, 2}, SpatialEntry{5, 5, 3}},
      engine3);
  EXPECT_EQ(dup->RangeSearch(Rect{5, 5, 5, 5})->size(), 3u);
}

TEST(RTreeTest, ExtremeCoordinates) {
  std::vector<SpatialEntry> points = {
      SpatialEntry{0, 0, 1},
      SpatialEntry{UINT32_MAX, UINT32_MAX, 2},
      SpatialEntry{0, UINT32_MAX, 3},
      SpatialEntry{UINT32_MAX, 0, 4},
  };
  std::unique_ptr<PlainEngine> engine;
  auto tree = BuildTree(points, engine);
  auto nn = tree->NearestNeighbors(UINT32_MAX, UINT32_MAX, 1);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ((*nn)[0].value, 2u);
  EXPECT_EQ(tree->RangeSearch(Rect{0, 0, UINT32_MAX, UINT32_MAX})->size(),
            4u);
}

TEST(RTreeTest, OpenRejectsGarbage) {
  std::vector<Page> pages = {Page(0, Bytes(kPageSize, 0x9a))};
  PlainEngine engine(std::move(pages));
  EXPECT_FALSE(RTree::Open(&engine).ok());
  EXPECT_FALSE(RTree::Open(nullptr).ok());
}

TEST(RTreeTest, WorksOverCApproxPir) {
  const auto points = RandomPoints(800, 6);
  RTreeBuilder builder(kPageSize);
  auto pages = builder.Build(points);
  ASSERT_TRUE(pages.ok());

  core::CApproxPir::Options options;
  options.num_pages = pages->size();
  options.page_size = kPageSize;
  options.cache_pages = 16;
  options.privacy_c = 2.0;
  auto stack = test::LoadedStack(options, 7, *pages);
  core::CApproxPir& engine = stack->engine();

  auto tree = RTree::Open(&engine);
  ASSERT_TRUE(tree.ok());
  auto nn = (*tree)->NearestNeighbors(4000, 4000, 3);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->size(), 3u);
  auto range = (*tree)->RangeSearch(Rect{0, 0, 2000, 2000});
  ASSERT_TRUE(range.ok());
  // Spot-verify against brute force.
  size_t expected = 0;
  for (const auto& p : points) {
    if (p.x <= 2000 && p.y <= 2000) {
      ++expected;
    }
  }
  EXPECT_EQ(range->size(), expected);
}

}  // namespace
}  // namespace shpir::index
