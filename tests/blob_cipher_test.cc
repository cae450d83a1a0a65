#include "crypto/blob_cipher.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace shpir::crypto {
namespace {

BlobCipher MakeCipher() {
  Result<BlobCipher> cipher =
      BlobCipher::Create(Bytes(32, 0x01), Bytes(32, 0x02));
  SHPIR_CHECK(cipher.ok());
  return std::move(cipher).value();
}

TEST(BlobCipherTest, RoundTripVariousSizes) {
  BlobCipher cipher = MakeCipher();
  SecureRandom rng(1);
  for (size_t len : {0u, 1u, 15u, 16u, 1000u, 65536u}) {
    Bytes plaintext(len);
    rng.Fill(plaintext);
    Result<Bytes> sealed = cipher.Seal(plaintext, rng);
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(sealed->size(), len + BlobCipher::kOverhead);
    Result<Bytes> opened = cipher.Open(*sealed);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, plaintext) << "len " << len;
  }
}

TEST(BlobCipherTest, TamperingDetected) {
  BlobCipher cipher = MakeCipher();
  SecureRandom rng(2);
  Bytes sealed = *cipher.Seal(Bytes(100, 0x55), rng);
  for (size_t pos : {size_t{0}, size_t{50}, sealed.size() - 1}) {
    Bytes tampered = sealed;
    tampered[pos] ^= 1;
    Result<Bytes> opened = cipher.Open(tampered);
    EXPECT_FALSE(opened.ok()) << pos;
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  }
}

TEST(BlobCipherTest, TruncatedBlobRejected) {
  BlobCipher cipher = MakeCipher();
  EXPECT_FALSE(cipher.Open(Bytes(BlobCipher::kOverhead - 1, 0)).ok());
}

TEST(BlobCipherTest, FreshNoncePerSeal) {
  BlobCipher cipher = MakeCipher();
  SecureRandom rng(3);
  const Bytes plaintext(64, 0x42);
  EXPECT_NE(*cipher.Seal(plaintext, rng), *cipher.Seal(plaintext, rng));
}

TEST(BlobCipherTest, PassphraseDerivation) {
  SecureRandom rng(4);
  Result<BlobCipher> a = BlobCipher::FromPassphrase("correct horse");
  Result<BlobCipher> b = BlobCipher::FromPassphrase("correct horse");
  Result<BlobCipher> c = BlobCipher::FromPassphrase("wrong horse");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  const Bytes secret = {1, 2, 3};
  Bytes sealed = *a->Seal(secret, rng);
  EXPECT_EQ(*b->Open(sealed), secret);   // Same passphrase opens.
  EXPECT_FALSE(c->Open(sealed).ok());    // Different passphrase fails.
}

TEST(BlobCipherTest, RejectsBadKeys) {
  EXPECT_FALSE(BlobCipher::Create(Bytes(10, 0), Bytes(32, 0)).ok());
}

// Pins the sealed blob format behind owner state files: a passphrase
// cipher and a seeded nonce source must seal a fixed blob to the bytes
// captured before the AES-NI and SHA-NI kernels existed.
TEST(BlobCipherTest, SealMatchesGoldenBytes) {
  Result<BlobCipher> cipher = BlobCipher::FromPassphrase("golden passphrase");
  ASSERT_TRUE(cipher.ok());
  SecureRandom rng(2011);
  Bytes plaintext(77);
  for (size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = static_cast<uint8_t>(255 - i);
  }
  const std::string golden =
      "7c9bfd4823888e502fe6bbcbf0db4ab7c36f42f72c01451e07d4516d9a07030b"
      "f00b609bb1e657f5db7ea7ee4904a63b17c8163aa36361bab8bb4fca50af9cec"
      "9ae2c83b7f1fb55c41ad27007790f4e14c73e22e0eb2b186d4d9a1856441fd2a"
      "ccd4f35091f7bf5d085645da150b07058ea38c1331ba8cf80e";
  Result<Bytes> sealed = cipher->Seal(plaintext, rng);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(*sealed), golden);
  EXPECT_EQ(*cipher->Open(HexDecode(golden)), plaintext);
}

}  // namespace
}  // namespace shpir::crypto
