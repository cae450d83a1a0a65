#ifndef SHPIR_STORAGE_PAGE_CIPHER_H_
#define SHPIR_STORAGE_PAGE_CIPHER_H_

#include <cstddef>
#include <span>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/gcm.h"
#include "crypto/secure_random.h"
#include "storage/page.h"
#include "storage/page_codec.h"

namespace shpir::storage {

/// Authenticated page encryption: AES-GCM (NIST SP 800-38D) under a
/// fresh random 96-bit nonce per write, with a 16-byte tag and no
/// associated data. A sealed slot is the nonce followed by GCM's
/// ciphertext and tag of the serialized page, id(8, LE) || payload(B).
///
/// Re-encrypting the same page twice yields unlinkable ciphertexts (fresh
/// nonce), which is what lets the scheme rewrite k+1 pages without the
/// adversary learning which of them changed — the core "new random nonce"
/// step of Fig. 3, line 21. The tag covers only the slot's own bytes, not
/// the slot or the write round (DESIGN.md, section 2).
class PageCipher {
 public:
  static constexpr size_t kNonceSize = crypto::AesGcm::kNonceSize;
  static constexpr size_t kTagSize = crypto::AesGcm::kTagSize;

  /// Creates a cipher for pages of `page_size` payload bytes under the
  /// AES key `key` (16/24/32 bytes). A serialized page longer than GCM's
  /// plaintext limit (crypto::AesGcm::kMaxTextSize) is refused.
  static Result<PageCipher> Create(ByteSpan key, size_t page_size);

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
  /// Seal calls on the same generator. `out` must be as long as `pages`.
  Status SealPages(std::span<const Page> pages, crypto::SecureRandom& rng,
                   std::span<Bytes> out) const;

  /// Verifies and decrypts `sealed[i]` into `out[i]` for every i, in page
  /// order. Each page's tag is computed over its ciphertext and compared
  /// in constant time before that page is decrypted, straight into
  /// `out[i].data` (resized to page_size(), which allocates nothing once
  /// it has that size). The first page, in page order, whose tag does not
  /// match answers DataLoss: the store is untrusted, and that is the
  /// answer to a slot it corrupted or tampered with. A sealed page moved
  /// whole to another slot still opens; the engine's position check
  /// catches that. `out` must be as long as `sealed`.
  Status OpenPages(std::span<const Bytes> sealed, std::span<Page> out) const;

 private:
  PageCipher(crypto::AesGcm gcm, size_t page_size)
      : gcm_(std::move(gcm)), codec_(page_size) {}

  /// OpenPages over any slots that view as ByteSpan.
  template <typename Slot>
  Status OpenSlots(std::span<const Slot> sealed, std::span<Page> out) const;

  /// Draws a nonce from `rng` and seals `page` under it into `slot`.
  Status Encrypt(const Page& page, crypto::SecureRandom& rng,
                 MutableByteSpan slot) const;

  /// Checks `slot`'s tag in constant time, then decrypts the slot into
  /// `page`.
  Status Decrypt(ByteSpan slot, Page& page) const;

  crypto::AesGcm gcm_;
  PageCodec codec_;
};

}  // namespace shpir::storage

#endif  // SHPIR_STORAGE_PAGE_CIPHER_H_
