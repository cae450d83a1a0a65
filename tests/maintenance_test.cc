#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "core/thread_safe_engine.h"
#include "crypto/secure_random.h"
#include "test_stack.h"

namespace shpir::core {
namespace {

using storage::Page;
using storage::PageId;

constexpr size_t kPageSize = 24;
constexpr size_t kSealedSize = storage::PageCipher::SealedSize(kPageSize);

Bytes PayloadFor(PageId id) {
  return Bytes(kPageSize, static_cast<uint8_t>(id * 7 + 1));
}

/// A stack loaded with PayloadFor(id) at all 60 page ids.
std::unique_ptr<EngineStack> MakeStack(uint64_t seed, uint64_t reserve = 8) {
  CApproxPir::Options options;
  options.num_pages = 60;
  options.page_size = kPageSize;
  options.cache_pages = 8;
  options.block_size = 8;
  options.insert_reserve = reserve;
  std::vector<Page> pages;
  for (PageId id = 0; id < 60; ++id) {
    pages.emplace_back(id, PayloadFor(id));
  }
  return test::LoadedStack(options, seed, pages);
}

TEST(OfflineReshuffleTest, PreservesLivePages) {
  auto stack = MakeStack(1);
  crypto::SecureRandom rng(2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(rng.UniformInt(60)).ok());
  }
  ASSERT_TRUE(stack->engine().OfflineReshuffle().ok());
  for (PageId id = 0; id < 60; ++id) {
    ASSERT_EQ(*stack->engine().Retrieve(id), PayloadFor(id)) << id;
  }
}

TEST(OfflineReshuffleTest, DestroysDeadContentAndKeepsSparesUsable) {
  auto stack = MakeStack(3);
  ASSERT_TRUE(stack->engine().Remove(5).ok());
  ASSERT_TRUE(stack->engine().Remove(6).ok());
  ASSERT_TRUE(stack->engine().OfflineReshuffle().ok());
  EXPECT_FALSE(stack->engine().Retrieve(5).ok());
  // The purged slots can still back future inserts.
  Result<PageId> id = stack->engine().Insert(PayloadFor(99));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*stack->engine().Retrieve(*id), PayloadFor(99));
  // Other pages intact.
  EXPECT_EQ(*stack->engine().Retrieve(7), PayloadFor(7));
}

TEST(OfflineReshuffleTest, MovesPages) {
  auto stack = MakeStack(4);
  // Record locations of all uncached pages, reshuffle, compare.
  std::vector<std::pair<PageId, storage::Location>> before;
  for (PageId id = 0; id < 60; ++id) {
    if (!stack->engine().DebugIsCached(id)) {
      before.emplace_back(id, *stack->engine().DebugLocation(id));
    }
  }
  ASSERT_TRUE(stack->engine().OfflineReshuffle().ok());
  int moved = 0;
  for (const auto& [id, loc] : before) {
    if (stack->engine().DebugIsCached(id) ||
        *stack->engine().DebugLocation(id) != loc) {
      ++moved;
    }
  }
  // A fresh uniform permutation leaves pages in place with prob ~1/n.
  EXPECT_GT(moved, static_cast<int>(before.size() * 9 / 10));
}

TEST(OfflineReshuffleTest, ResetsScanCursor) {
  auto stack = MakeStack(5);
  ASSERT_TRUE(stack->engine().Retrieve(0).ok());
  ASSERT_TRUE(stack->engine().Retrieve(1).ok());
  ASSERT_TRUE(stack->engine().OfflineReshuffle().ok());
  // Next query scans block 0 again: check via cost/trace-free proxy —
  // the engine still answers correctly for a full scan period.
  for (uint64_t i = 0; i < stack->engine().scan_period() + 1; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(i % 60).ok());
  }
}

TEST(KeyRotationTest, PagesSurviveRotation) {
  auto stack = MakeStack(10);
  crypto::SecureRandom rng(11);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(stack->engine().Retrieve(rng.UniformInt(60)).ok());
  }
  ASSERT_TRUE(stack->engine().RotateKeys().ok());
  for (PageId id = 0; id < 60; ++id) {
    ASSERT_EQ(*stack->engine().Retrieve(id), PayloadFor(id)) << id;
  }
}

TEST(KeyRotationTest, OldCiphertextsUnreadableAfterRotation) {
  auto stack = MakeStack(12);
  // Keep a pre-rotation sealed slot.
  Bytes old_slot(kSealedSize);
  ASSERT_TRUE(stack->cpu().disk()->Read(0, old_slot).ok());
  ASSERT_TRUE(stack->engine().RotateKeys().ok());
  // The retained old ciphertext no longer verifies under the new keys.
  Result<Page> opened = stack->cpu().OpenPage(old_slot);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(KeyRotationTest, RotationChangesAllCiphertexts) {
  auto stack = MakeStack(13);
  storage::Disk& disk = *stack->cpu().disk();
  std::vector<Bytes> before(disk.num_slots(), Bytes(kSealedSize));
  for (uint64_t i = 0; i < disk.num_slots(); ++i) {
    ASSERT_TRUE(disk.Read(i, before[i]).ok());
  }
  ASSERT_TRUE(stack->engine().RotateKeys().ok());
  for (uint64_t i = 0; i < disk.num_slots(); ++i) {
    Bytes after(kSealedSize);
    ASSERT_TRUE(disk.Read(i, after).ok());
    EXPECT_NE(after, before[i]) << "slot " << i;
  }
}

TEST(KeyRotationTest, UpdatesComposeWithRotation) {
  auto stack = MakeStack(14);
  ASSERT_TRUE(stack->engine().Modify(3, PayloadFor(300)).ok());
  ASSERT_TRUE(stack->engine().RotateKeys().ok());
  EXPECT_EQ(*stack->engine().Retrieve(3), PayloadFor(300));
  ASSERT_TRUE(stack->engine().Remove(4).ok());
  ASSERT_TRUE(stack->engine().RotateKeys().ok());
  EXPECT_FALSE(stack->engine().Retrieve(4).ok());
}

TEST(ThreadSafeEngineTest, ConcurrentRetrievesStayCorrect) {
  auto stack = MakeStack(6);
  ThreadSafeEngine safe(&stack->engine());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      crypto::SecureRandom rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const PageId id = rng.UniformInt(60);
        Result<Bytes> data = safe.Retrieve(id);
        if (!data.ok() || *data != PayloadFor(id)) {
          failures[t]++;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  EXPECT_EQ(stack->engine().stats().queries,
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(ThreadSafeEngineTest, ForwardsMetadata) {
  auto stack = MakeStack(7);
  ThreadSafeEngine safe(&stack->engine());
  EXPECT_EQ(safe.num_pages(), stack->engine().num_pages());
  EXPECT_EQ(safe.page_size(), stack->engine().page_size());
  EXPECT_STREQ(safe.name(), stack->engine().name());
}

}  // namespace
}  // namespace shpir::core
