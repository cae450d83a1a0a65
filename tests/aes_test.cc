#include "crypto/aes.h"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace shpir::crypto {
namespace {

struct AesVector {
  std::string name;
  std::string key_hex;
  std::string plaintext_hex;
  std::string ciphertext_hex;
};

// Keeps the discovered ctest name stable across builds (see sha256_test.cc).
void PrintTo(const AesVector& v, std::ostream* os) { *os << v.name; }

class AesKnownAnswerTest : public ::testing::TestWithParam<AesVector> {};

TEST_P(AesKnownAnswerTest, Encrypt) {
  const AesVector& v = GetParam();
  const Bytes key = HexDecode(v.key_hex);
  const Bytes pt = HexDecode(v.plaintext_hex);
  const Bytes ct = HexDecode(v.ciphertext_hex);
  Result<Aes> aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok()) << aes.status();
  uint8_t out[Aes::kBlockSize];
  aes->EncryptBlock(pt.data(), out);
  EXPECT_EQ(HexEncode(ByteSpan(out, 16)), v.ciphertext_hex);
  (void)ct;
}

TEST_P(AesKnownAnswerTest, Decrypt) {
  const AesVector& v = GetParam();
  const Bytes key = HexDecode(v.key_hex);
  const Bytes ct = HexDecode(v.ciphertext_hex);
  Result<Aes> aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok()) << aes.status();
  uint8_t out[Aes::kBlockSize];
  aes->DecryptBlock(ct.data(), out);
  EXPECT_EQ(HexEncode(ByteSpan(out, 16)), v.plaintext_hex);
}

TEST_P(AesKnownAnswerTest, RoundTripInPlace) {
  const AesVector& v = GetParam();
  const Bytes key = HexDecode(v.key_hex);
  Bytes block = HexDecode(v.plaintext_hex);
  Result<Aes> aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  aes->EncryptBlock(block.data(), block.data());
  EXPECT_EQ(HexEncode(block), v.ciphertext_hex);
  aes->DecryptBlock(block.data(), block.data());
  EXPECT_EQ(HexEncode(block), v.plaintext_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Fips197, AesKnownAnswerTest,
    ::testing::Values(
        // FIPS 197 Appendix C.1.
        AesVector{"Aes128", "000102030405060708090a0b0c0d0e0f",
                  "00112233445566778899aabbccddeeff",
                  "69c4e0d86a7b0430d8cdb78070b4c55a"},
        // FIPS 197 Appendix C.2.
        AesVector{"Aes192",
                  "000102030405060708090a0b0c0d0e0f1011121314151617",
                  "00112233445566778899aabbccddeeff",
                  "dda97ca4864cdfe06eaf70a0ec0d7191"},
        // FIPS 197 Appendix C.3.
        AesVector{"Aes256",
                  "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c"
                  "1d1e1f",
                  "00112233445566778899aabbccddeeff",
                  "8ea2b7ca516745bfeafc49904b496089"},
        // NIST SP 800-38A ECB-AES128 block #1.
        AesVector{"Sp80038aEcb128", "2b7e151628aed2a6abf7158809cf4f3c",
                  "6bc1bee22e409f96e93d7e117393172a",
                  "3ad77bb40d7a3660a89ecaf32466ef97"},
        // NIST SP 800-38A ECB-AES256 block #1.
        AesVector{"Sp80038aEcb256",
                  "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914"
                  "dff4",
                  "6bc1bee22e409f96e93d7e117393172a",
                  "f3eed1bdb5d2a03c064b5a7e3db181f8"}),
    [](const ::testing::TestParamInfo<AesVector>& info) {
      return info.param.name;
    });

TEST(AesTest, RejectsBadKeySizes) {
  for (size_t len : {0u, 1u, 15u, 17u, 23u, 31u, 33u, 64u}) {
    Bytes key(len, 0x42);
    Result<Aes> aes = Aes::Create(key);
    EXPECT_FALSE(aes.ok()) << "key length " << len;
    EXPECT_EQ(aes.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AesTest, RoundCounts) {
  Bytes key16(16, 0), key24(24, 0), key32(32, 0);
  EXPECT_EQ(Aes::Create(key16)->rounds(), 10);
  EXPECT_EQ(Aes::Create(key24)->rounds(), 12);
  EXPECT_EQ(Aes::Create(key32)->rounds(), 14);
}

TEST(AesTest, DifferentKeysGiveDifferentCiphertexts) {
  Bytes key_a(16, 0x00), key_b(16, 0x01);
  Bytes pt(16, 0xab);
  uint8_t ct_a[16], ct_b[16];
  Aes::Create(key_a)->EncryptBlock(pt.data(), ct_a);
  Aes::Create(key_b)->EncryptBlock(pt.data(), ct_b);
  EXPECT_NE(HexEncode(ByteSpan(ct_a, 16)), HexEncode(ByteSpan(ct_b, 16)));
}

TEST(AesTest, EncryptDecryptRandomBlocks) {
  Bytes key = HexDecode("2b7e151628aed2a6abf7158809cf4f3c");
  Result<Aes> aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t block[16];
  uint8_t ct[16];
  uint8_t back[16];
  for (int trial = 0; trial < 256; ++trial) {
    for (int i = 0; i < 16; ++i) {
      block[i] = static_cast<uint8_t>(trial * 17 + i * 31);
    }
    aes->EncryptBlock(block, ct);
    aes->DecryptBlock(ct, back);
    EXPECT_EQ(std::memcmp(block, back, 16), 0) << "trial " << trial;
  }
}

}  // namespace
}  // namespace shpir::crypto
