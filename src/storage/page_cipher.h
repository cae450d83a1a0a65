#ifndef SHPIR_STORAGE_PAGE_CIPHER_H_
#define SHPIR_STORAGE_PAGE_CIPHER_H_

#include <cstddef>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/ctr.h"
#include "crypto/hmac.h"
#include "crypto/secure_random.h"
#include "storage/page.h"
#include "storage/page_codec.h"

namespace shpir::storage {

/// Authenticated page encryption: AES-CTR with a fresh random nonce per
/// write plus HMAC-SHA-256 over nonce||ciphertext (encrypt-then-MAC).
///
/// Re-encrypting the same page twice yields unlinkable ciphertexts (fresh
/// nonce), which is what lets the scheme rewrite k+1 pages without the
/// adversary learning which of them changed — the core "new random nonce"
/// step of Fig. 3, line 21.
class PageCipher {
 public:
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kTagSize = crypto::HmacSha256::kTagSize;

  /// Creates a cipher for pages of `page_size` payload bytes. `enc_key`
  /// must be a valid AES key (16/24/32 bytes); `mac_key` any length.
  static Result<PageCipher> Create(ByteSpan enc_key, ByteSpan mac_key,
                                   size_t page_size);

  /// Ciphertext slot size for `page_size` payload bytes: nonce +
  /// encrypted (id + payload) + tag. Disks are sized with it.
  static constexpr size_t SealedSize(size_t page_size) {
    return kNonceSize + PageCodec::kHeaderSize + page_size + kTagSize;
  }

  size_t sealed_size() const { return SealedSize(codec_.page_size()); }

  size_t page_size() const { return codec_.page_size(); }

  /// Encrypts `page` under a fresh nonce drawn from `rng`.
  Result<Bytes> Seal(const Page& page, crypto::SecureRandom& rng) const;

  /// Verifies and decrypts a sealed page. Returns DataLoss on MAC
  /// failure (the "curious but not malicious" server should never trigger
  /// this; it guards against corruption).
  Result<Page> Open(ByteSpan sealed) const;

 private:
  PageCipher(crypto::AesCtr ctr, crypto::HmacSha256 mac, size_t page_size)
      : ctr_(std::move(ctr)), mac_(std::move(mac)), codec_(page_size) {}

  crypto::AesCtr ctr_;
  crypto::HmacSha256 mac_;
  PageCodec codec_;
};

}  // namespace shpir::storage

#endif  // SHPIR_STORAGE_PAGE_CIPHER_H_
