// Cross-cutting cryptographic properties: nonce freshness, keystream
// non-reuse, and avalanche behavior — defense-in-depth checks on top of
// the known-answer vectors.

#include <gtest/gtest.h>

#include <set>

#include "common/check.h"
#include "crypto/aes.h"
#include "crypto/secure_random.h"
#include "crypto/sha256.h"
#include "storage/page_cipher.h"

namespace shpir::crypto {
namespace {

TEST(CryptoPropertiesTest, SealedNoncesNeverRepeat) {
  auto cipher = storage::PageCipher::Create(Bytes(32, 1), 16);
  ASSERT_TRUE(cipher.ok());
  SecureRandom rng(1);
  const storage::Page page(0, Bytes(16, 0));
  std::set<Bytes, BytesLess> nonces;
  for (int i = 0; i < 20000; ++i) {
    Bytes sealed = *cipher->Seal(page, rng);
    Bytes nonce(sealed.begin(),
                sealed.begin() + storage::PageCipher::kNonceSize);
    ASSERT_TRUE(nonces.insert(std::move(nonce)).second) << "iteration " << i;
  }
}

TEST(CryptoPropertiesTest, AesAvalanche) {
  // Flipping any single plaintext bit flips ~half the ciphertext bits.
  auto aes = Aes::Create(Bytes(16, 0x3c));
  ASSERT_TRUE(aes.ok());
  uint8_t base[16] = {};
  uint8_t base_ct[16];
  aes->EncryptBlock(base, base_ct);
  for (int bit = 0; bit < 128; bit += 7) {
    uint8_t flipped[16] = {};
    flipped[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
    uint8_t ct[16];
    aes->EncryptBlock(flipped, ct);
    int diff = 0;
    for (int i = 0; i < 16; ++i) {
      diff += __builtin_popcount(base_ct[i] ^ ct[i]);
    }
    EXPECT_GT(diff, 40) << "bit " << bit;
    EXPECT_LT(diff, 88) << "bit " << bit;
  }
}

TEST(CryptoPropertiesTest, Sha256Avalanche) {
  Bytes base(32, 0x11);
  const auto base_digest = Sha256::Hash(base);
  for (size_t pos = 0; pos < base.size(); pos += 5) {
    Bytes mutated = base;
    mutated[pos] ^= 1;
    const auto digest = Sha256::Hash(mutated);
    int diff = 0;
    for (size_t i = 0; i < digest.size(); ++i) {
      diff += __builtin_popcount(base_digest[i] ^ digest[i]);
    }
    EXPECT_GT(diff, 80) << pos;   // ~128 expected of 256 bits.
    EXPECT_LT(diff, 176) << pos;
  }
}

TEST(CryptoPropertiesTest, EncryptBlockIsAPermutation) {
  // Distinct plaintexts map to distinct ciphertexts (injective on a
  // sample), and decryption inverts.
  auto aes = Aes::Create(Bytes(32, 0x77));
  ASSERT_TRUE(aes.ok());
  std::set<Bytes, BytesLess> outputs;
  SecureRandom rng(2);
  for (int i = 0; i < 2000; ++i) {
    Bytes pt(16);
    rng.Fill(pt);
    Bytes ct(16);
    aes->EncryptBlock(pt.data(), ct.data());
    outputs.insert(ct);
    Bytes back(16);
    aes->DecryptBlock(ct.data(), back.data());
    ASSERT_EQ(back, pt);
  }
  // Collisions would imply a broken permutation (2000 random 128-bit
  // values collide with probability ~0).
  EXPECT_EQ(outputs.size(), 2000u);
}

TEST(CryptoPropertiesTest, SecureRandomStreamsAreIndependentPerSeed) {
  // 64 seeds, first 8 bytes each: all distinct.
  std::set<uint64_t> firsts;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    SecureRandom rng(seed);
    firsts.insert(rng.NextUint64());
  }
  EXPECT_EQ(firsts.size(), 64u);
}

}  // namespace
}  // namespace shpir::crypto
