#include "baselines/encrypted_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/check.h"
#include "hardware/coprocessor.h"
#include "storage/disk.h"

namespace shpir::baselines {
namespace {

using storage::Page;
using storage::PageId;

constexpr size_t kPageSize = 24;
constexpr size_t kSealedSize = storage::PageCipher::SealedSize(kPageSize);

TEST(StaticEncryptedStoreTest, RetrievesCorrectPages) {
  storage::MemoryDisk disk(20, kSealedSize);
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::Ibm4764(), &disk, kPageSize, 1);
  ASSERT_TRUE(cpu.ok());
  StaticEncryptedStore::Options options{20, kPageSize};
  auto store = StaticEncryptedStore::Create(cpu->get(), options);
  ASSERT_TRUE(store.ok());
  std::vector<Page> pages;
  for (PageId id = 0; id < 20; ++id) {
    pages.emplace_back(id, Bytes(kPageSize, static_cast<uint8_t>(id * 3)));
  }
  ASSERT_TRUE((*store)->Initialize(pages).ok());
  for (PageId id = 0; id < 20; ++id) {
    EXPECT_EQ(*(*store)->Retrieve(id),
              Bytes(kPageSize, static_cast<uint8_t>(id * 3)));
  }
}

TEST(StaticEncryptedStoreTest, LayoutIsPermutedButStatic) {
  storage::MemoryDisk disk(32, kSealedSize);
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::Ibm4764(), &disk, kPageSize, 2);
  ASSERT_TRUE(cpu.ok());
  StaticEncryptedStore::Options options{32, kPageSize};
  auto store = StaticEncryptedStore::Create(cpu->get(), options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Initialize({}).ok());
  // All locations distinct (a permutation)...
  std::set<storage::Location> locations;
  for (PageId id = 0; id < 32; ++id) {
    EXPECT_TRUE(locations.insert((*store)->LocationOf(id)).second);
  }
  // ...and repeated queries hit the same slot (the §1 weakness).
  const storage::Location first = (*store)->LocationOf(5);
  ASSERT_TRUE((*store)->Retrieve(5).ok());
  ASSERT_TRUE((*store)->Retrieve(5).ok());
  EXPECT_EQ((*store)->LocationOf(5), first);
}

TEST(StaticEncryptedStoreTest, CostIsOneSeekOnePage) {
  storage::MemoryDisk disk(16, kSealedSize);
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::Ibm4764(), &disk, kPageSize, 3);
  ASSERT_TRUE(cpu.ok());
  StaticEncryptedStore::Options options{16, kPageSize};
  auto store = StaticEncryptedStore::Create(cpu->get(), options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Initialize({}).ok());
  const auto before = (*cpu)->cost().Snapshot();
  ASSERT_TRUE((*store)->Retrieve(0).ok());
  const auto delta = (*cpu)->cost().Snapshot() - before;
  EXPECT_EQ(delta.seeks, 1u);
  EXPECT_EQ(delta.disk_bytes, kSealedSize);
}

TEST(StaticEncryptedStoreTest, Validation) {
  storage::MemoryDisk disk(4, kSealedSize);
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::Ibm4764(), &disk, kPageSize, 4);
  ASSERT_TRUE(cpu.ok());
  StaticEncryptedStore::Options options{5, kPageSize};
  EXPECT_FALSE(StaticEncryptedStore::Create(cpu->get(), options).ok());
  options.num_pages = 4;
  auto store = StaticEncryptedStore::Create(cpu->get(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->Retrieve(0).ok());  // Not initialized.
  ASSERT_TRUE((*store)->Initialize({}).ok());
  EXPECT_FALSE((*store)->Retrieve(4).ok());  // Out of range.
}

}  // namespace
}  // namespace shpir::baselines
