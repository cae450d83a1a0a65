#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "crypto/blob_cipher.h"
#include "crypto/secure_random.h"
#include "storage/disk.h"
#include "storage/file_disk.h"
#include "test_stack.h"

namespace shpir::core {
namespace {

using storage::Page;
using storage::PageId;

constexpr size_t kPageSize = 32;
constexpr size_t kSealedSize = storage::PageCipher::SealedSize(kPageSize);
constexpr uint64_t kDeviceSeed = 777;

CApproxPir::Options MakeOptions() {
  CApproxPir::Options options;
  options.num_pages = 40;
  options.page_size = kPageSize;
  options.cache_pages = 6;
  options.block_size = 8;
  options.insert_reserve = 4;
  return options;
}

Bytes PayloadFor(PageId id) { return Bytes(kPageSize, static_cast<uint8_t>(id + 1)); }

/// A stack for `options` whose device is seeded with `seed`, over `disk`
/// (a restarted session's) or, when null, a fresh in-memory disk.
std::unique_ptr<EngineStack> MakeStack(
    uint64_t seed, storage::Disk* disk = nullptr,
    const CApproxPir::Options& options = MakeOptions()) {
  auto stack = EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), seed, disk);
  SHPIR_CHECK(stack.ok());
  return std::move(stack).value();
}

TEST(PersistenceTest, StateRoundTripsAcrossEngineInstances) {
  const CApproxPir::Options options = MakeOptions();
  Result<uint64_t> slots = CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());
  storage::MemoryDisk disk(*slots, kSealedSize);

  Bytes state;
  {
    std::unique_ptr<EngineStack> stack = MakeStack(kDeviceSeed, &disk);
    CApproxPir& engine = stack->engine();
    std::vector<Page> pages;
    for (PageId id = 0; id < options.num_pages; ++id) {
      pages.emplace_back(id, PayloadFor(id));
    }
    ASSERT_TRUE(engine.Initialize(pages).ok());
    // Churn, plus an update and a delete so the state is non-trivial.
    crypto::SecureRandom rng(1);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(engine.Retrieve(rng.UniformInt(40)).ok());
    }
    ASSERT_TRUE(engine.Modify(5, PayloadFor(99)).ok());
    ASSERT_TRUE(engine.Remove(6).ok());
    Result<Bytes> serialized = engine.SerializeState();
    ASSERT_TRUE(serialized.ok());
    state = *serialized;
  }

  // New session: same disk contents, same device seed (same keys).
  std::unique_ptr<EngineStack> stack = MakeStack(kDeviceSeed, &disk);
  CApproxPir& engine = stack->engine();
  ASSERT_TRUE(engine.RestoreState(state).ok());

  EXPECT_EQ(*engine.Retrieve(5), PayloadFor(99));
  EXPECT_FALSE(engine.Retrieve(6).ok());
  crypto::SecureRandom rng(2);
  for (int i = 0; i < 200; ++i) {
    PageId id = rng.UniformInt(40);
    if (id == 6) {
      continue;
    }
    const Bytes expected = id == 5 ? PayloadFor(99) : PayloadFor(id);
    ASSERT_EQ(*engine.Retrieve(id), expected) << "id " << id;
  }
  // Stats carried over (200 queries before + the sweep here).
  EXPECT_GT(engine.stats().queries, 200u);
}

TEST(PersistenceTest, SurvivesFileDiskReopen) {
  const std::string path = ::testing::TempDir() + "/shpir_persist.bin";
  std::remove(path.c_str());
  const CApproxPir::Options options = MakeOptions();
  Result<uint64_t> slots = CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());

  Bytes state;
  {
    auto disk = storage::FileDisk::Create(path, *slots, kSealedSize);
    ASSERT_TRUE(disk.ok());
    std::unique_ptr<EngineStack> stack = MakeStack(kDeviceSeed, disk->get());
    CApproxPir& engine = stack->engine();
    std::vector<Page> pages;
    for (PageId id = 0; id < options.num_pages; ++id) {
      pages.emplace_back(id, PayloadFor(id));
    }
    ASSERT_TRUE(engine.Initialize(pages).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(engine.Retrieve(static_cast<PageId>(i % 40)).ok());
    }
    state = *engine.SerializeState();
  }

  {
    auto disk = storage::FileDisk::Open(path, *slots, kSealedSize);
    ASSERT_TRUE(disk.ok());
    std::unique_ptr<EngineStack> stack = MakeStack(kDeviceSeed, disk->get());
    ASSERT_TRUE(stack->engine().RestoreState(state).ok());
    for (PageId id = 0; id < 40; ++id) {
      ASSERT_EQ(*stack->engine().Retrieve(id), PayloadFor(id)) << id;
    }
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, SealedStateBlobRoundTrip) {
  // The snapshot wrapped with BlobCipher, as a deployment would store it.
  auto stack = test::LoadedStack(MakeOptions(), kDeviceSeed);
  const Bytes state = *stack->engine().SerializeState();

  auto cipher = crypto::BlobCipher::FromPassphrase("device escrow");
  ASSERT_TRUE(cipher.ok());
  crypto::SecureRandom rng(9);
  const Bytes sealed = *cipher->Seal(state, rng);
  EXPECT_EQ(*cipher->Open(sealed), state);
}

TEST(PersistenceTest, GeometryMismatchRejected) {
  auto stack = test::LoadedStack(MakeOptions(), 1);
  Bytes state = *stack->engine().SerializeState();

  // Different cache size -> geometry check must fire.
  CApproxPir::Options other = MakeOptions();
  other.cache_pages = 8;
  std::unique_ptr<EngineStack> other_stack = MakeStack(1, nullptr, other);
  EXPECT_EQ(other_stack->engine().RestoreState(state).code(),
            StatusCode::kInvalidArgument);
}

TEST(PersistenceTest, CorruptStateRejected) {
  auto stack = test::LoadedStack(MakeOptions(), 1);
  Bytes state = *stack->engine().SerializeState();

  auto restore_into_fresh = [&](const Bytes& blob) -> Status {
    return MakeStack(1)->engine().RestoreState(blob);
  };

  // Truncated.
  Bytes truncated(state.begin(), state.begin() + 40);
  EXPECT_FALSE(restore_into_fresh(truncated).ok());
  // Bad magic.
  Bytes bad_magic = state;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(restore_into_fresh(bad_magic).ok());
  // Trailing garbage.
  Bytes trailing = state;
  trailing.push_back(0);
  EXPECT_FALSE(restore_into_fresh(trailing).ok());
  // The pristine blob still restores.
  EXPECT_TRUE(restore_into_fresh(state).ok());
}

TEST(PersistenceTest, SerializeRequiresInitialized) {
  EXPECT_FALSE(MakeStack(1)->engine().SerializeState().ok());
}

}  // namespace
}  // namespace shpir::core
