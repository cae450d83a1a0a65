#include "core/oblivious_shuffle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "crypto/permutation.h"
#include "crypto/secure_random.h"
#include "storage/access_trace.h"
#include "storage/disk.h"

namespace shpir::core {
namespace {

// Applies the Batcher network to an int array.
std::vector<int> SortWithNetwork(std::vector<int> values) {
  BatcherNetwork(values.size(), [&](uint64_t i, uint64_t j) {
    if (values[i] > values[j]) {
      std::swap(values[i], values[j]);
    }
  });
  return values;
}

TEST(BatcherNetworkTest, SortsAllSmallSizes) {
  crypto::SecureRandom rng(11);
  for (uint64_t n = 0; n <= 130; ++n) {
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<int> values(n);
      for (auto& v : values) {
        v = static_cast<int>(rng.UniformInt(50));
      }
      std::vector<int> expected = values;
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(SortWithNetwork(values), expected)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(BatcherNetworkTest, SortsLargerRandomArrays) {
  crypto::SecureRandom rng(12);
  for (uint64_t n : {1000u, 4096u, 5000u}) {
    std::vector<int> values(n);
    for (auto& v : values) {
      v = static_cast<int>(rng.UniformInt(1u << 30));
    }
    std::vector<int> expected = values;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(SortWithNetwork(values), expected) << "n=" << n;
  }
}

TEST(BatcherNetworkTest, SortsAdversarialPatterns) {
  for (uint64_t n : {7u, 31u, 33u, 100u}) {
    std::vector<int> descending(n);
    std::iota(descending.rbegin(), descending.rend(), 0);
    std::vector<int> expected = descending;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(SortWithNetwork(descending), expected);

    std::vector<int> equal(n, 42);
    EXPECT_EQ(SortWithNetwork(equal), equal);
  }
}

TEST(BatcherNetworkTest, NetworkDependsOnlyOnSize) {
  // The pair sequence must be a function of n alone (data-obliviousness).
  auto pairs_of = [](uint64_t n) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    BatcherNetwork(n, [&](uint64_t i, uint64_t j) {
      pairs.emplace_back(i, j);
    });
    return pairs;
  };
  for (uint64_t n : {2u, 17u, 64u, 100u}) {
    EXPECT_EQ(pairs_of(n), pairs_of(n)) << n;
  }
}

TEST(BatcherNetworkTest, PairsAreInBoundsAndOrdered) {
  for (uint64_t n : {2u, 3u, 63u, 64u, 65u}) {
    BatcherNetwork(n, [&](uint64_t i, uint64_t j) {
      EXPECT_LT(i, j);
      EXPECT_LT(j, n);
    });
  }
}

class ObliviousShuffleTest : public ::testing::Test {
 protected:
  static constexpr size_t kPageSize = 16;
  static constexpr size_t kSealedSize =
      storage::PageCipher::SealedSize(kPageSize);

  // Builds a coprocessor over `n` slots, loading page id i into slot i.
  void Setup(uint64_t n, uint64_t seed) {
    disk_ = std::make_unique<storage::MemoryDisk>(n, kSealedSize);
    tracing_ = std::make_unique<storage::TracingDisk>(disk_.get(), &trace_);
    trace_.BeginRequest();
    Result<std::unique_ptr<hardware::SecureCoprocessor>> cpu =
        hardware::SecureCoprocessor::Create(hardware::HardwareProfile(),
                                            tracing_.get(), kPageSize, seed);
    SHPIR_CHECK(cpu.ok());
    cpu_ = std::move(cpu).value();
    for (uint64_t i = 0; i < n; ++i) {
      storage::Page page(i, Bytes(kPageSize, static_cast<uint8_t>(i)));
      Result<Bytes> sealed = cpu_->SealPage(page);
      SHPIR_CHECK(sealed.ok());
      SHPIR_CHECK_OK(cpu_->WriteSlot(i, *sealed));
    }
    trace_.Clear();
    trace_.BeginRequest();
  }

  // Reads the page id stored at each slot.
  std::vector<uint64_t> SlotIds(uint64_t n) {
    std::vector<uint64_t> ids(n);
    for (uint64_t i = 0; i < n; ++i) {
      Result<Bytes> sealed = cpu_->ReadSlot(i);
      SHPIR_CHECK(sealed.ok());
      Result<storage::Page> page = cpu_->OpenPage(*sealed);
      SHPIR_CHECK(page.ok());
      ids[i] = page->id;
    }
    return ids;
  }

  storage::AccessTrace trace_;
  std::unique_ptr<storage::MemoryDisk> disk_;
  std::unique_ptr<storage::TracingDisk> tracing_;
  std::unique_ptr<hardware::SecureCoprocessor> cpu_;
};

TEST_F(ObliviousShuffleTest, ProducesReportedPermutation) {
  constexpr uint64_t kN = 37;
  Setup(kN, 5);
  Result<std::vector<uint64_t>> perm = ObliviousShuffle(*cpu_, kN);
  ASSERT_TRUE(perm.ok()) << perm.status();
  ASSERT_TRUE(crypto::IsPermutation(*perm));
  const std::vector<uint64_t> ids = SlotIds(kN);
  // Page originally in slot i (id i) must now be at slot (*perm)[i].
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(ids[(*perm)[i]], i) << i;
  }
}

TEST_F(ObliviousShuffleTest, PreservesAllPages) {
  constexpr uint64_t kN = 64;
  Setup(kN, 6);
  ASSERT_TRUE(ObliviousShuffle(*cpu_, kN).ok());
  std::vector<uint64_t> ids = SlotIds(kN);
  std::sort(ids.begin(), ids.end());
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(ids[i], i);
  }
}

TEST_F(ObliviousShuffleTest, AccessPatternIndependentOfPermutation) {
  // Two devices with different RNG seeds (hence different permutations)
  // must produce byte-for-byte identical access traces.
  constexpr uint64_t kN = 33;
  Setup(kN, 100);
  ASSERT_TRUE(ObliviousShuffle(*cpu_, kN).ok());
  const std::vector<storage::AccessEvent> trace_a = trace_.events();

  Setup(kN, 200);
  ASSERT_TRUE(ObliviousShuffle(*cpu_, kN).ok());
  const std::vector<storage::AccessEvent> trace_b = trace_.events();

  EXPECT_EQ(trace_a, trace_b);
  EXPECT_FALSE(trace_a.empty());
}

TEST_F(ObliviousShuffleTest, DifferentSeedsGiveDifferentPermutations) {
  constexpr uint64_t kN = 40;
  Setup(kN, 1);
  Result<std::vector<uint64_t>> a = ObliviousShuffle(*cpu_, kN);
  Setup(kN, 2);
  Result<std::vector<uint64_t>> b = ObliviousShuffle(*cpu_, kN);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
}

TEST_F(ObliviousShuffleTest, RejectsOversizedRange) {
  Setup(8, 3);
  EXPECT_FALSE(ObliviousShuffle(*cpu_, 9).ok());
}

TEST_F(ObliviousShuffleTest, UniformOverSmallDomain) {
  // n = 3: all 6 permutations should occur with roughly equal frequency.
  std::map<std::vector<uint64_t>, int> counts;
  constexpr int kTrials = 600;
  for (int t = 0; t < kTrials; ++t) {
    Setup(3, 1000 + static_cast<uint64_t>(t));
    Result<std::vector<uint64_t>> perm = ObliviousShuffle(*cpu_, 3);
    ASSERT_TRUE(perm.ok());
    counts[*perm]++;
  }
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [perm, count] : counts) {
    EXPECT_GT(count, 60);
    EXPECT_LT(count, 140);
  }
}

}  // namespace
}  // namespace shpir::core
