// Long-running soak: interleaves every operation class — queries,
// updates, inserts, removals, snapshots/restores, offline reshuffles
// and key rotations — against a shadow model, catching interactions no
// single-feature test exercises.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/check.h"
#include "analysis/privacy_audit.h"
#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "storage/disk.h"
#include "test_stack.h"

namespace shpir::core {
namespace {

using storage::Page;
using storage::PageId;

constexpr size_t kPageSize = 24;
constexpr size_t kSealedSize = storage::PageCipher::SealedSize(kPageSize);
constexpr uint64_t kSeed = 20260704;

Bytes PayloadFor(uint64_t tag) {
  Bytes data(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    data[i] = static_cast<uint8_t>(tag * 131 + i * 17 + 3);
  }
  return data;
}

TEST(SoakTest, EverythingInterleaved) {
  CApproxPir::Options options;
  options.num_pages = 80;
  options.page_size = kPageSize;
  options.cache_pages = 10;
  options.block_size = 8;
  options.insert_reserve = 30;
  // Built by hand, not as an EngineStack: the restore step below swaps a
  // new engine onto this live device, whose keys RotateKeys replaced.
  Result<uint64_t> slots = CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());
  storage::MemoryDisk disk(*slots, kSealedSize);
  auto cpu = hardware::SecureCoprocessor::Create(
      hardware::HardwareProfile::Ibm4764(), &disk, kPageSize, kSeed);
  ASSERT_TRUE(cpu.ok());
  auto engine_holder = CApproxPir::Create(cpu->get(), options);
  ASSERT_TRUE(engine_holder.ok());
  std::unique_ptr<CApproxPir> engine = std::move(engine_holder).value();

  std::map<PageId, Bytes> shadow;
  std::vector<Page> pages;
  for (PageId id = 0; id < options.num_pages; ++id) {
    pages.emplace_back(id, PayloadFor(id));
    shadow[id] = PayloadFor(id);
  }
  ASSERT_TRUE(engine->Initialize(pages).ok());

  crypto::SecureRandom rng(kSeed + 1);
  uint64_t tag = 1000;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t action = rng.UniformInt(100);
    if (action < 60 && !shadow.empty()) {
      // Query.
      auto it = shadow.begin();
      std::advance(it, rng.UniformInt(shadow.size()));
      Result<Bytes> data = engine->Retrieve(it->first);
      ASSERT_TRUE(data.ok()) << "step " << step;
      ASSERT_EQ(*data, it->second) << "step " << step;
    } else if (action < 75 && !shadow.empty()) {
      // Modify.
      auto it = shadow.begin();
      std::advance(it, rng.UniformInt(shadow.size()));
      const Bytes fresh = PayloadFor(tag++);
      ASSERT_TRUE(engine->Modify(it->first, fresh).ok());
      it->second = fresh;
    } else if (action < 85 && !shadow.empty()) {
      // Remove.
      auto it = shadow.begin();
      std::advance(it, rng.UniformInt(shadow.size()));
      ASSERT_TRUE(engine->Remove(it->first).ok());
      shadow.erase(it);
    } else if (action < 95) {
      // Insert (may exhaust spares; tolerated).
      const Bytes fresh = PayloadFor(tag++);
      Result<PageId> id = engine->Insert(fresh);
      if (id.ok()) {
        shadow[*id] = fresh;
      }
    } else if (action < 97) {
      ASSERT_TRUE(engine->OfflineReshuffle().ok()) << "step " << step;
    } else if (action < 98) {
      ASSERT_TRUE(engine->RotateKeys().ok()) << "step " << step;
    } else {
      // Snapshot + restore into a brand-new engine instance.
      Result<Bytes> state = engine->SerializeState();
      ASSERT_TRUE(state.ok());
      auto replacement = CApproxPir::Create(cpu->get(), options);
      ASSERT_TRUE(replacement.ok()) << replacement.status();
      ASSERT_TRUE((*replacement)->RestoreState(*state).ok());
      engine = std::move(replacement).value();
    }
  }

  // Final audit: every shadow entry retrievable and correct.
  for (const auto& [id, data] : shadow) {
    ASSERT_EQ(*engine->Retrieve(id), data) << "final id " << id;
  }
}

TEST(SoakTest, PrivacyModelHoldsAfterMaintenance) {
  // The c-approximate distribution must hold on an engine that has been
  // reshuffled, rotated and restored — the mechanism's guarantees are
  // not an artifact of the fresh initial state.
  CApproxPir::Options options;
  options.num_pages = 64;
  options.page_size = kPageSize;
  options.cache_pages = 8;
  options.block_size = 16;
  auto stack = test::LoadedStack(options, kSeed + 7);
  CApproxPir& engine = stack->engine();

  crypto::SecureRandom warmup(kSeed + 8);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(engine.Retrieve(warmup.UniformInt(64)).ok());
  }
  ASSERT_TRUE(engine.OfflineReshuffle().ok());
  ASSERT_TRUE(engine.RotateKeys().ok());

  crypto::SecureRandom workload(kSeed + 9);
  Result<analysis::PrivacyReport> report = analysis::RunPrivacyAudit(
      engine, 30000, [&]() { return workload.UniformInt(64); });
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->measured_c, report->analytic_c,
              report->analytic_c * 0.12);
  EXPECT_GT(report->slot_entropy, 0.999);
}

}  // namespace
}  // namespace shpir::core
