#include "storage/page_cipher.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"

namespace shpir::storage {
namespace {

PageCipher MakeCipher(size_t page_size) {
  Result<PageCipher> cipher =
      PageCipher::Create(Bytes(32, 0x01), Bytes(32, 0x02), page_size);
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
  // nonce (12) + id (8) + payload (100) + tag (32).
  EXPECT_EQ(cipher.sealed_size(), 152u);
  static_assert(PageCipher::SealedSize(100) == 152);
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
  Result<PageCipher> b =
      PageCipher::Create(Bytes(32, 0x0a), Bytes(32, 0x0b), 16);
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
  EXPECT_FALSE(PageCipher::Create(Bytes(32, 0), Bytes(32, 0), 0).ok());
}

TEST(PageCipherTest, RejectsBadKey) {
  EXPECT_FALSE(PageCipher::Create(Bytes(10, 0), Bytes(32, 0), 16).ok());
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
// nonces in page order, tags hashed two at a time or alone for an odd
// tail. The slots' old bytes and sizes do not matter.
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
// DataLoss, for j in the first and the second lane of a tag pair and in
// the odd tail. Pages are opened in page order: every page before j has
// been opened by then.
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

// Pins the sealed page format: fixed keys, a seeded nonce source and a
// fixed page must seal to the bytes captured before the AES-NI and
// SHA-NI kernels existed, so databases sealed then still open.
TEST(PageCipherTest, SealMatchesGoldenBytes) {
  PageCipher cipher = MakeCipher(200);
  crypto::SecureRandom rng(2011);
  Bytes payload(200);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const Page page(12345, payload);
  const std::string golden =
      "7c9bfd4823888e502fe6bbcbea5a6f3cee9f61e296dbc6caf156f008250099f1"
      "d45a4c56881e0d4ab34f6e19a2b7c289adecd75d2dd9b806cfd923ff8d7a382a"
      "21146215ff47a04d2ef6e3e45b2191ef39d697984aabf232f727c9c2ff6d83f5"
      "f89a2a44eb1fcf9e35a4b3b49ff4ce573335db7d36535f42a99535b1330382ce"
      "41d90066452e0c83552513dc25e5620187019fdf8dfcf2d804a2846dcb4f89da"
      "45bc087d77a27baff87599968da2f7e6ba6344b70b407da65d9cd42edda433eb"
      "ac0cf681e6430f54de7a297c2aae67c1a72849ddc16267a0e6901a3b8b9db7a8"
      "1a7e0cbccee57dd66ab866e184874e6feb685052e7ccd3a6dff2e4bc";
  Result<Bytes> sealed = cipher.Seal(page, rng);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(*sealed), golden);
  Result<Page> opened = cipher.Open(HexDecode(golden));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, page);
}

}  // namespace
}  // namespace shpir::storage
