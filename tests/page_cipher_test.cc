#include "storage/page_cipher.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"

namespace shpir::storage {
namespace {

PageCipher MakeCipher(size_t page_size) {
  Result<PageCipher> cipher =
      PageCipher::Create(Bytes(32, 0x01), page_size);
  SHPIR_CHECK(cipher.ok());
  return std::move(cipher).value();
}

TEST(PageCipherTest, SealOpenRoundTrip) {
  PageCipher cipher = MakeCipher(64);
  crypto::SecureRandom rng(1);
  Page page(42, Bytes(64, 0x99));
  Result<Bytes> sealed = cipher.Seal(page, rng);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->size(), cipher.sealed_size());
  Result<Page> back = cipher.Open(*sealed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, page);
}

TEST(PageCipherTest, SealedSizeLayout) {
  PageCipher cipher = MakeCipher(100);
  // nonce (12) + id (8) + payload (100) + tag (16).
  EXPECT_EQ(cipher.sealed_size(), 136u);
  static_assert(PageCipher::SealedSize(100) == 136);
  crypto::SecureRandom rng(5);
  for (size_t page_size : {size_t{1}, size_t{34}, size_t{256}, size_t{1024}}) {
    Result<Bytes> sealed =
        MakeCipher(page_size).Seal(Page(9, Bytes(page_size, 0x7e)), rng);
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(PageCipher::SealedSize(page_size), sealed->size())
        << "page size " << page_size;
  }
}

TEST(PageCipherTest, ResealingIsUnlinkable) {
  // The same page sealed twice must give completely different ciphertexts
  // (fresh nonce) — this is what hides which of the k+1 rewritten pages
  // actually changed.
  PageCipher cipher = MakeCipher(32);
  crypto::SecureRandom rng(2);
  Page page(7, Bytes(32, 0x55));
  Result<Bytes> a = cipher.Seal(page, rng);
  Result<Bytes> b = cipher.Seal(page, rng);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  // Both decrypt to the same page.
  EXPECT_EQ(*cipher.Open(*a), page);
  EXPECT_EQ(*cipher.Open(*b), page);
}

TEST(PageCipherTest, TamperedCiphertextRejected) {
  PageCipher cipher = MakeCipher(32);
  crypto::SecureRandom rng(3);
  Page page(1, Bytes(32, 0x11));
  Bytes sealed = *cipher.Seal(page, rng);
  for (size_t pos : {size_t{0}, size_t{12}, size_t{30}, sealed.size() - 1}) {
    Bytes tampered = sealed;
    tampered[pos] ^= 0x01;
    Result<Page> result = cipher.Open(tampered);
    EXPECT_FALSE(result.ok()) << "tamper at " << pos;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  }
}

TEST(PageCipherTest, WrongSizeRejected) {
  PageCipher cipher = MakeCipher(32);
  Bytes wrong(cipher.sealed_size() - 1, 0);
  EXPECT_EQ(cipher.Open(wrong).status().code(), StatusCode::kInvalidArgument);
}

TEST(PageCipherTest, DifferentKeysCannotOpen) {
  crypto::SecureRandom rng(4);
  PageCipher a = MakeCipher(16);
  Result<PageCipher> b = PageCipher::Create(Bytes(32, 0x0a), 16);
  ASSERT_TRUE(b.ok());
  Page page(3, Bytes(16, 0x33));
  Bytes sealed = *a.Seal(page, rng);
  EXPECT_FALSE(b->Open(sealed).ok());
}

TEST(PageCipherTest, CiphertextHidesPlaintextStructure) {
  // An all-zeros page must not produce an all-zeros ciphertext body.
  PageCipher cipher = MakeCipher(64);
  crypto::SecureRandom rng(5);
  Page page(0, Bytes(64, 0x00));
  Bytes sealed = *cipher.Seal(page, rng);
  int zeros = 0;
  for (size_t i = PageCipher::kNonceSize; i < sealed.size(); ++i) {
    if (sealed[i] == 0) {
      ++zeros;
    }
  }
  EXPECT_LT(zeros, 16);  // Random-looking: expect ~ (size/256) zeros.
}

TEST(PageCipherTest, RejectsZeroPageSize) {
  EXPECT_FALSE(PageCipher::Create(Bytes(32, 0), 0).ok());
}

TEST(PageCipherTest, RejectsBadKey) {
  EXPECT_FALSE(PageCipher::Create(Bytes(10, 0), 16).ok());
}

// SP 800-38D caps a GCM plaintext at 2^39 - 256 bits, which is 2^36 - 32
// bytes of id and payload. Nothing is allocated for either size.
TEST(PageCipherTest, RejectsPageSizePastGcmLimit) {
  const size_t largest =
      crypto::AesGcm::kMaxTextSize - PageCodec::kHeaderSize;
  EXPECT_EQ(largest, (size_t{1} << 36) - 32 - 8);
  EXPECT_TRUE(PageCipher::Create(Bytes(32, 0), largest).ok());
  const Result<PageCipher> past = PageCipher::Create(Bytes(32, 0), largest + 1);
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
}

// `n` pages of `page_size` bytes with distinct ids and payloads.
std::vector<Page> DistinctPages(size_t n, size_t page_size) {
  std::vector<Page> pages;
  for (size_t i = 0; i < n; ++i) {
    Bytes payload(page_size);
    for (size_t j = 0; j < page_size; ++j) {
      payload[j] = static_cast<uint8_t>(i * 31 + j);
    }
    pages.emplace_back(1000 + i, std::move(payload));
  }
  return pages;
}

// The batch seals under seed s the bytes n Seal calls give under seed s:
// nonces in page order. The slots' old bytes and sizes do not matter.
TEST(PageCipherTest, SealPagesMatchesSealCalls) {
  for (const size_t page_size :
       {size_t{1}, size_t{8}, size_t{9}, size_t{256}, size_t{1024}}) {
    const PageCipher cipher = MakeCipher(page_size);
    for (const size_t n : {size_t{1}, size_t{2}, size_t{9}, size_t{25}}) {
      const std::vector<Page> pages = DistinctPages(n, page_size);
      crypto::SecureRandom single_rng(40 + n);
      std::vector<Bytes> expected;
      for (const Page& page : pages) {
        expected.push_back(*cipher.Seal(page, single_rng));
      }
      crypto::SecureRandom batch_rng(40 + n);
      std::vector<Bytes> sealed(n, Bytes(3, 0xee));
      ASSERT_TRUE(cipher.SealPages(pages, batch_rng, sealed).ok());
      EXPECT_EQ(sealed, expected) << n << " pages of " << page_size;
      // Both generators stand at the same point afterwards.
      EXPECT_EQ(batch_rng.NextUint64(), single_rng.NextUint64());

      std::vector<Page> opened(n);
      ASSERT_TRUE(cipher.OpenPages(sealed, opened).ok());
      EXPECT_EQ(opened, pages) << n << " pages of " << page_size;
    }
  }
}

// One flipped byte in the nonce, the body or the tag of page j is
// DataLoss, for j first, last and in between. Pages are opened in page
// order: every page before j has been opened by then.
TEST(PageCipherTest, OpenPagesRejectsAFlippedByteInAnyPage) {
  const PageCipher cipher = MakeCipher(64);
  const std::vector<Page> pages = DistinctPages(9, 64);
  crypto::SecureRandom rng(6);
  std::vector<Bytes> sealed(pages.size());
  ASSERT_TRUE(cipher.SealPages(pages, rng, sealed).ok());
  const size_t body = PageCipher::kNonceSize + 20;
  const size_t tag = cipher.sealed_size() - 1;
  for (const size_t j : {size_t{0}, size_t{1}, size_t{4}, size_t{7},
                         size_t{8}}) {
    for (const size_t pos : {size_t{0}, body, tag}) {
      std::vector<Bytes> tampered = sealed;
      tampered[j][pos] ^= 0x01;
      std::vector<Page> opened(pages.size());
      const Status status = cipher.OpenPages(tampered, opened);
      EXPECT_EQ(status.code(), StatusCode::kDataLoss)
          << "page " << j << ", byte " << pos;
      for (size_t i = 0; i < j; ++i) {
        EXPECT_EQ(opened[i], pages[i]) << "page " << i << " before " << j;
      }
    }
  }
}

TEST(PageCipherTest, BatchesRejectMismatchedSpans) {
  const PageCipher cipher = MakeCipher(32);
  const std::vector<Page> pages = DistinctPages(3, 32);
  crypto::SecureRandom rng(7);
  std::vector<Bytes> sealed(2);
  EXPECT_EQ(cipher.SealPages(pages, rng, sealed).code(),
            StatusCode::kInvalidArgument);
  sealed.resize(3);
  ASSERT_TRUE(cipher.SealPages(pages, rng, sealed).ok());
  std::vector<Page> opened(2);
  EXPECT_EQ(cipher.OpenPages(sealed, opened).code(),
            StatusCode::kInvalidArgument);
  opened.resize(3);
  sealed[2].pop_back();
  EXPECT_EQ(cipher.OpenPages(sealed, opened).code(),
            StatusCode::kInvalidArgument);
}

// Pins the sealed page format: a fixed key, a seeded nonce source and a
// fixed page must seal to the nonce followed by AES-256-GCM's
// ciphertext and tag, byte for byte as Python's `cryptography` package
// gives them: the generator above SealMatchesAesGcmForPageSizes prints
// these bytes' SHA-256 in its 200-byte row.
TEST(PageCipherTest, SealMatchesGoldenBytes) {
  PageCipher cipher = MakeCipher(200);
  crypto::SecureRandom rng(2011);
  Bytes payload(200);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const Page page(12345, payload);
  const std::string golden =
      "7c9bfd4823888e502fe6bbcb30357b496a220281cd3958e62ff903dfad1a584a"
      "41744235df6740adce1603c47b01b18f59b6f7f86a8bd212d7c729221f4da3d5"
      "d8ba4a248b7fefbe158493547f142e771315fb5d56333f22c9b5159113e3622e"
      "a1392046650e6ce3354573fc05c542e167e17f3faddcd2f824c2e40dab6fa9fa"
      "659ce89d97425b8fd855b9f6edc297c69a436497eba09d46bdbcf40efdc4538b"
      "cc6cd6a1c663efb43e9ac95c0a8e47a1c74829bde1424780c670fadb8cbab6c3"
      "9e84d586b3308b67c625553b97db05f7e8612099566b2e169c639d8db19e7f0f"
      "3ae23921692849a8e01c0496";
  Result<Bytes> sealed = cipher.Seal(page, rng);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(*sealed), golden);
  Result<Page> opened = cipher.Open(HexDecode(golden));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, page);
}

// The SHA-256 of the slot that key 01 x 32, the nonce source seeded with
// 2011 and page 12345 with payload byte i = 7i + 3 seal to, for several
// page sizes: one partial GHASH block up to 64 blocks and a half. The
// digests come from Python's `cryptography` package, which rebuilds the
// nonce from the same ChaCha20 stream:
//
//   python3 - <<'EOF'
//   import hashlib, struct
//   from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
//   from cryptography.hazmat.primitives.ciphers.aead import AESGCM
//   key = struct.pack('<Q', 2011) + bytes(23) + b'\x5e'
//   drbg = Cipher(algorithms.ChaCha20(key, bytes(16)), None).encryptor()
//   nonce = drbg.update(bytes(12))
//   for b in (1, 16, 200, 256, 1024):
//       page = struct.pack('<Q', 12345) + bytes((7 * i + 3) % 256
//                                               for i in range(b))
//       slot = nonce + AESGCM(bytes([1]) * 32).encrypt(nonce, page, None)
//       print(b, hashlib.sha256(slot).hexdigest())
//   EOF
TEST(PageCipherTest, SealMatchesAesGcmForPageSizes) {
  const std::vector<std::pair<size_t, std::string>> digests = {
      {1, "18adb73ed45d6cf63b25c363c025cb11d3442625a8233874c282fd78b2ad55c5"},
      {16, "1592c620ac57ba8e92db58ea07acc54e16b4db7730b703d29469413fbeccfe98"},
      {200,
       "e7370b3954a2c6d515f173c6d0a3fbb54482d7729a0921c275a4e9b1388e4cf5"},
      {256,
       "c9a0617a01f657ddb7282caba8ed46655f91246d18b38478de986041f6c9875e"},
      {1024,
       "9fef058285c854b40437bb6ce3235bf1e206c36bdabd4b52d7d4fd6974da588f"},
  };
  for (const auto& [page_size, digest] : digests) {
    const PageCipher cipher = MakeCipher(page_size);
    crypto::SecureRandom rng(2011);
    Bytes payload(page_size);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    const Page page(12345, payload);
    Result<Bytes> sealed = cipher.Seal(page, rng);
    ASSERT_TRUE(sealed.ok());
    const crypto::Sha256::Digest hash = crypto::Sha256::Hash(*sealed);
    EXPECT_EQ(HexEncode(ByteSpan(hash.data(), hash.size())), digest)
        << page_size << "-byte page";
    EXPECT_EQ(*cipher.Open(*sealed), page) << page_size << "-byte page";
  }
}

}  // namespace
}  // namespace shpir::storage
