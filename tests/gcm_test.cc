#include "crypto/gcm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "common/bytes.h"
#include "crypto/ctr.h"
#include "crypto/secure_random.h"

namespace shpir::crypto {
namespace {

AesGcm MakeGcm(const Bytes& key) {
  Result<AesGcm> gcm = AesGcm::Create(key);
  EXPECT_TRUE(gcm.ok());
  return std::move(gcm).value();
}

// The GCM specification's AES-256 test cases 13 and 14: K = 0^256 and
// IV = 0^96, over the empty text and over 16 zero bytes.
TEST(AesGcmTest, GcmSpecTestCases13And14) {
  const Bytes key(32, 0);
  const Bytes nonce(12, 0);
  // H = E_K(0^128).
  const Result<AesCtr> ctr = AesCtr::Create(key);
  ASSERT_TRUE(ctr.ok());
  Bytes h(16, 0);
  ASSERT_TRUE(ctr->Crypt(Bytes(16, 0), h, h).ok());
  EXPECT_EQ(HexEncode(h), "dc95c078a2408989ad48a21492842087");

  const AesGcm gcm = MakeGcm(key);
  Bytes tag(AesGcm::kTagSize);
  Bytes empty;
  ASSERT_TRUE(gcm.Seal(nonce, empty, tag).ok());
  EXPECT_EQ(HexEncode(tag), "530f8afbc74536b9a963b4f1c4cb738b");
  EXPECT_TRUE(gcm.Verify(nonce, empty, tag));

  Bytes text(16, 0);
  ASSERT_TRUE(gcm.Seal(nonce, text, tag).ok());
  EXPECT_EQ(HexEncode(text), "cea7403d4d606b6e074ec5d3baf39d18");
  EXPECT_EQ(HexEncode(tag), "d0d1c8a799996bf0265b98b5d48ab919");
  EXPECT_TRUE(gcm.Verify(nonce, text, tag));
  ASSERT_TRUE(gcm.Decrypt(nonce, text, text).ok());
  EXPECT_EQ(text, Bytes(16, 0));
}

// Decrypt from block j is the keystream of the text's block j on: a
// sealed text opens whole or in pieces cut at block boundaries.
TEST(AesGcmTest, DecryptResumesAtAnyBlock) {
  SecureRandom rng(21);
  Bytes key(32);
  rng.Fill(key);
  const AesGcm gcm = MakeGcm(key);
  Bytes nonce(12);
  rng.Fill(nonce);
  Bytes plain(200);
  rng.Fill(plain);
  Bytes text = plain;
  Bytes tag(AesGcm::kTagSize);
  ASSERT_TRUE(gcm.Seal(nonce, text, tag).ok());
  ASSERT_TRUE(gcm.Verify(nonce, text, tag));
  for (const uint32_t block : {0u, 1u, 4u, 12u}) {
    const size_t offset = 16 * size_t{block};
    Bytes part(text.size() - offset);
    ASSERT_TRUE(gcm.Decrypt(nonce, ByteSpan(text).subspan(offset), part,
                            block)
                    .ok());
    EXPECT_EQ(part, Bytes(plain.begin() + offset, plain.end()))
        << "from block " << block;
  }
}

// Any flipped bit of the ciphertext, the tag or the nonce fails the
// check, as do a truncated tag and another key.
TEST(AesGcmTest, VerifyRejectsAnyFlippedByte) {
  SecureRandom rng(22);
  Bytes key(32);
  rng.Fill(key);
  const AesGcm gcm = MakeGcm(key);
  Bytes nonce(12);
  rng.Fill(nonce);
  Bytes text(70);
  rng.Fill(text);
  Bytes tag(AesGcm::kTagSize);
  ASSERT_TRUE(gcm.Seal(nonce, text, tag).ok());
  ASSERT_TRUE(gcm.Verify(nonce, text, tag));
  for (size_t i = 0; i < text.size(); ++i) {
    Bytes flipped = text;
    flipped[i] ^= static_cast<uint8_t>(1u << (i % 8));
    EXPECT_FALSE(gcm.Verify(nonce, flipped, tag)) << "text byte " << i;
  }
  for (size_t i = 0; i < tag.size(); ++i) {
    Bytes flipped = tag;
    flipped[i] ^= 0x80;
    EXPECT_FALSE(gcm.Verify(nonce, text, flipped)) << "tag byte " << i;
  }
  for (size_t i = 0; i < nonce.size(); ++i) {
    Bytes flipped = nonce;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(gcm.Verify(flipped, text, tag)) << "nonce byte " << i;
  }
  EXPECT_FALSE(gcm.Verify(nonce, text, ByteSpan(tag).first(15)));
  key[0] ^= 0x01;
  EXPECT_FALSE(MakeGcm(key).Verify(nonce, text, tag));
}

TEST(AesGcmTest, RejectsBadSizes) {
  const AesGcm gcm = MakeGcm(Bytes(32, 7));
  Bytes text(16);
  Bytes tag(AesGcm::kTagSize);
  EXPECT_EQ(gcm.Seal(Bytes(11, 0), text, tag).code(),
            StatusCode::kInvalidArgument);
  Bytes short_tag(15);
  EXPECT_EQ(gcm.Seal(Bytes(12, 0), text, short_tag).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(gcm.Verify(Bytes(11, 0), text, tag));
  EXPECT_FALSE(AesGcm::Create(Bytes(10, 0)).ok());
  // The text's blocks take counter values 2 .. 2^32 - 1; a part that
  // would run the 32-bit counter past that is refused.
  Bytes out(16);
  EXPECT_TRUE(gcm.Decrypt(Bytes(12, 0), text, out, UINT32_MAX - 2).ok());
  EXPECT_EQ(gcm.Decrypt(Bytes(12, 0), text, out, UINT32_MAX - 1).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace shpir::crypto
