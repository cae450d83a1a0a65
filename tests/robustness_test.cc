// Decode-robustness: every parser in the library must reject random or
// mutated inputs with an error — never crash, never accept garbage.

#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "crypto/blob_cipher.h"
#include "crypto/secure_random.h"
#include "index/bplus_tree.h"
#include "index/hash_index.h"
#include "net/secure_channel.h"
#include "net/wire.h"
#include "storage/page_cipher.h"
#include "test_stack.h"

namespace shpir {
namespace {

constexpr int kFuzzIterations = 500;

TEST(RobustnessTest, WireDecodeSurvivesRandomFrames) {
  crypto::SecureRandom rng(1);
  for (int i = 0; i < kFuzzIterations; ++i) {
    Bytes frame(rng.UniformInt(64));
    rng.Fill(frame);
    // Must not crash; may succeed only with a valid op byte.
    (void)net::DecodeRequest(frame);
    (void)net::DecodeResponse(frame);
  }
}

TEST(RobustnessTest, PageCipherRejectsRandomBlobs) {
  auto cipher = storage::PageCipher::Create(Bytes(32, 1), 64);
  ASSERT_TRUE(cipher.ok());
  crypto::SecureRandom rng(2);
  for (int i = 0; i < kFuzzIterations; ++i) {
    Bytes blob(cipher->sealed_size());
    rng.Fill(blob);
    EXPECT_FALSE(cipher->Open(blob).ok()) << i;
  }
}

TEST(RobustnessTest, BlobCipherRejectsRandomBlobs) {
  auto cipher = crypto::BlobCipher::Create(Bytes(32, 1), Bytes(32, 2));
  ASSERT_TRUE(cipher.ok());
  crypto::SecureRandom rng(3);
  for (int i = 0; i < kFuzzIterations; ++i) {
    Bytes blob(crypto::BlobCipher::kOverhead + rng.UniformInt(100));
    rng.Fill(blob);
    EXPECT_FALSE(cipher->Open(blob).ok()) << i;
  }
}

TEST(RobustnessTest, SecureSessionRejectsRandomRecords) {
  auto session = net::SecureSession::Establish(
      Bytes(32, 1), net::SecureSession::Role::kServer, Bytes(16, 2),
      Bytes(16, 3));
  ASSERT_TRUE(session.ok());
  crypto::SecureRandom rng(4);
  for (int i = 0; i < kFuzzIterations; ++i) {
    Bytes record(rng.UniformInt(128));
    rng.Fill(record);
    EXPECT_FALSE(session->Open(record).ok()) << i;
  }
}

TEST(RobustnessTest, StateRestoreSurvivesMutations) {
  constexpr size_t kPageSize = 16;
  core::CApproxPir::Options options;
  options.num_pages = 20;
  options.page_size = kPageSize;
  options.cache_pages = 3;
  options.block_size = 4;

  // Produce a valid state blob.
  auto stack = test::LoadedStack(options, 5);
  core::CApproxPir& engine = stack->engine();
  const Bytes state = *engine.SerializeState();

  crypto::SecureRandom rng(6);
  for (int i = 0; i < 200; ++i) {
    Bytes mutated = state;
    // Flip 1-4 random bytes (never leaves the blob well-formed unless
    // it hits a don't-care bit; either outcome must be handled without
    // crashing or corrupting later restores).
    const int flips = 1 + static_cast<int>(rng.UniformInt(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.UniformInt(mutated.size())] ^=
          static_cast<uint8_t>(1 + rng.UniformInt(255));
    }
    auto fresh = core::EngineStack::Create(
        options, hardware::HardwareProfile::Ibm4764(), 5);
    SHPIR_CHECK(fresh.ok());
    (void)(*fresh)->engine().RestoreState(mutated);  // Must not crash.
  }
}

TEST(RobustnessTest, IndexesRejectCorruptedMetaPages) {
  constexpr size_t kPageSize = 128;
  class OnePageEngine : public core::PirEngine {
   public:
    explicit OnePageEngine(Bytes data) : data_(std::move(data)) {}
    Result<Bytes> Retrieve(storage::PageId id) override {
      if (id != 0) {
        return NotFoundError("only page 0");
      }
      return data_;
    }
    uint64_t num_pages() const override { return 1; }
    size_t page_size() const override { return kPageSize; }
    const char* name() const override { return "one"; }

   private:
    Bytes data_;
  };

  crypto::SecureRandom rng(7);
  for (int i = 0; i < 100; ++i) {
    Bytes meta(kPageSize);
    rng.Fill(meta);
    OnePageEngine engine(meta);
    EXPECT_FALSE(index::BPlusTree::Open(&engine).ok());
    EXPECT_FALSE(index::HashIndex::Open(&engine).ok());
  }
}

TEST(RobustnessTest, HexDecodeSurvivesRandomStrings) {
  crypto::SecureRandom rng(8);
  for (int i = 0; i < kFuzzIterations; ++i) {
    std::string s;
    const uint64_t len = rng.UniformInt(32);
    for (uint64_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.UniformInt(256)));
    }
    (void)HexDecode(s);  // Must not crash.
  }
}

}  // namespace
}  // namespace shpir
