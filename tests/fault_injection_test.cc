#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "crypto/secure_random.h"
#include "storage/disk.h"
#include "test_stack.h"

namespace shpir {
namespace {

using storage::Location;
using storage::MemoryDisk;

constexpr size_t kPageSize = 24;
constexpr size_t kSealedSize = storage::PageCipher::SealedSize(kPageSize);

/// Disk decorator that starts failing after a budget of operations, or
/// corrupts reads — simulates media failures under the engine.
class FaultyDisk : public storage::Disk {
 public:
  explicit FaultyDisk(storage::Disk* inner) : inner_(inner) {}

  void FailAfter(uint64_t ops) { remaining_ = ops; }
  void CorruptReads(bool corrupt) { corrupt_reads_ = corrupt; }

  uint64_t num_slots() const override { return inner_->num_slots(); }
  size_t slot_size() const override { return inner_->slot_size(); }

  Status Read(Location loc, MutableByteSpan out) override {
    SHPIR_RETURN_IF_ERROR(Tick());
    SHPIR_RETURN_IF_ERROR(inner_->Read(loc, out));
    if (corrupt_reads_) {
      out[0] ^= 0xFF;
    }
    return OkStatus();
  }

  Status Write(Location loc, ByteSpan data) override {
    SHPIR_RETURN_IF_ERROR(Tick());
    return inner_->Write(loc, data);
  }

 private:
  Status Tick() {
    if (remaining_ == 0) {
      return InternalError("injected disk failure");
    }
    if (remaining_ != UINT64_MAX) {
      --remaining_;
    }
    return OkStatus();
  }

  storage::Disk* inner_;
  uint64_t remaining_ = UINT64_MAX;
  bool corrupt_reads_ = false;
};

struct Rig {
  std::unique_ptr<MemoryDisk> inner;
  std::unique_ptr<FaultyDisk> disk;
  std::unique_ptr<core::EngineStack> stack;

  static Rig Make(uint64_t seed) {
    core::CApproxPir::Options options;
    options.num_pages = 40;
    options.page_size = kPageSize;
    options.cache_pages = 4;
    options.block_size = 8;
    Rig rig;
    Result<uint64_t> slots = core::CApproxPir::DiskSlots(options);
    SHPIR_CHECK(slots.ok());
    rig.inner = std::make_unique<MemoryDisk>(*slots, kSealedSize);
    rig.disk = std::make_unique<FaultyDisk>(rig.inner.get());
    rig.stack = test::LoadedStack(options, seed, {}, nullptr, rig.disk.get());
    return rig;
  }
};

TEST(FaultInjectionTest, ReadFailureSurfacesAsError) {
  Rig rig = Rig::Make(1);
  rig.disk->FailAfter(0);
  Result<Bytes> data = rig.stack->engine().Retrieve(0);
  EXPECT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kInternal);
}

TEST(FaultInjectionTest, MidRoundFailureSurfacesAsError) {
  Rig rig = Rig::Make(2);
  // Fail in the middle of the block read (8 reads + 1 extra + writes).
  rig.disk->FailAfter(3);
  EXPECT_FALSE(rig.stack->engine().Retrieve(0).ok());
  // Fail during write-back.
  Rig rig2 = Rig::Make(3);
  rig2.disk->FailAfter(10);  // Past the 9 reads, into the writes.
  EXPECT_FALSE(rig2.stack->engine().Retrieve(0).ok());
}

TEST(FaultInjectionTest, CorruptedCiphertextDetectedAsDataLoss) {
  Rig rig = Rig::Make(4);
  rig.disk->CorruptReads(true);
  Result<Bytes> data = rig.stack->engine().Retrieve(0);
  EXPECT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kDataLoss);
}

TEST(FaultInjectionTest, RecoversWhenFaultClears) {
  Rig rig = Rig::Make(5);
  rig.disk->CorruptReads(true);
  EXPECT_FALSE(rig.stack->engine().Retrieve(0).ok());
  rig.disk->CorruptReads(false);
  // A transient MAC failure during the read phase did not mutate any
  // state: the engine keeps serving (the round-robin cursor advanced,
  // which is harmless).
  Result<Bytes> data = rig.stack->engine().Retrieve(0);
  EXPECT_TRUE(data.ok()) << data.status();
}

TEST(FaultInjectionTest, InitializeFailureSurfaces) {
  core::CApproxPir::Options options;
  options.num_pages = 40;
  options.page_size = kPageSize;
  options.cache_pages = 4;
  options.block_size = 8;
  Result<uint64_t> slots = core::CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());
  MemoryDisk inner(*slots, kSealedSize);
  FaultyDisk disk(&inner);
  disk.FailAfter(0);
  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), 6, &disk);
  ASSERT_TRUE(stack.ok()) << stack.status();
  EXPECT_FALSE((*stack)->engine().Initialize({}).ok());
}

}  // namespace
}  // namespace shpir
