#ifndef SHPIR_STORAGE_PAGE_CIPHER_H_
#define SHPIR_STORAGE_PAGE_CIPHER_H_

#include <cstddef>
#include <span>

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

  /// Encrypts `page` under a fresh nonce drawn from `rng`: SealPages
  /// over one page.
  Result<Bytes> Seal(const Page& page, crypto::SecureRandom& rng) const;

  /// Verifies and decrypts a sealed page: OpenPages over one slot.
  Result<Page> Open(ByteSpan sealed) const;

  /// Seals `pages[i]` into `out[i]` for every i, reusing the caller's
  /// buffers: each `out[i]` is resized to sealed_size(), which allocates
  /// nothing once it has that size. The nonces are drawn from `rng` in
  /// page order, so the slots are byte for byte those of pages.size()
  /// Seal calls on the same generator. The tags of pages 2j and 2j + 1
  /// are hashed together (HmacSha256::ComputePair). `out` must be as
  /// long as `pages`.
  Status SealPages(std::span<const Page> pages, crypto::SecureRandom& rng,
                   std::span<Bytes> out) const;

  /// Verifies and decrypts `sealed[i]` into `out[i]` for every i, tags
  /// hashed two at a time. Each page's tag is compared in constant time
  /// before that page is decrypted, straight into `out[i].data` (resized
  /// to page_size(), which allocates nothing once it has that size). The
  /// first page, in page order, whose tag does not match answers
  /// DataLoss: the store is untrusted, and that is the answer to a slot
  /// it corrupted or tampered with. A sealed page moved whole to another
  /// slot still opens; the engine's position check catches that. `out`
  /// must be as long as `sealed`.
  Status OpenPages(std::span<const Bytes> sealed, std::span<Page> out) const;

 private:
  PageCipher(crypto::AesCtr ctr, crypto::HmacSha256 mac, size_t page_size)
      : ctr_(std::move(ctr)), mac_(std::move(mac)), codec_(page_size) {}

  /// OpenPages over any slots that view as ByteSpan.
  template <typename Slot>
  Status OpenSlots(std::span<const Slot> sealed, std::span<Page> out) const;

  /// The bytes of `slot` its tag covers: nonce || encrypted page.
  ByteSpan Authenticated(ByteSpan slot) const {
    return slot.first(kNonceSize + codec_.serialized_size());
  }

  /// Draws a nonce from `rng` and writes it and the encrypted page into
  /// `slot`; the tag is left to the caller.
  Status Encrypt(const Page& page, crypto::SecureRandom& rng,
                 MutableByteSpan slot) const;

  /// Checks `slot`'s stored tag against `expected` in constant time,
  /// then decrypts the slot into `page`.
  Status Decrypt(ByteSpan slot, const crypto::HmacSha256::Tag& expected,
                 Page& page) const;

  crypto::AesCtr ctr_;
  crypto::HmacSha256 mac_;
  PageCodec codec_;
};

}  // namespace shpir::storage

#endif  // SHPIR_STORAGE_PAGE_CIPHER_H_
