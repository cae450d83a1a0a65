#ifndef SHPIR_CRYPTO_GCM_H_
#define SHPIR_CRYPTO_GCM_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"
#include "common/secret.h"
#include "crypto/ctr.h"
#include "crypto/kernels.h"

namespace shpir::crypto {

/// AES-GCM (NIST SP 800-38D) with a 96-bit nonce, a 16-byte tag and no
/// associated data. The text is AesCtr's keystream from counter block
/// nonce || 2 on; the tag is GHASH of the ciphertext and its length
/// block, masked with the keystream block nonce || 1. GHASH runs on
/// PCLMULQDQ where CPUID reports it, and on a constant-time portable
/// multiply elsewhere (crypto/kernels.h); both give the same bytes.
///
/// Sealing and checking are separate steps, so a caller can verify a
/// tag before it decrypts anything and then decrypt each part of the
/// text where it belongs.
class AesGcm {
 public:
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kTagSize = 16;
  /// SP 800-38D caps a plaintext at 2^39 - 256 bits. Below that, the
  /// 32-bit block counter, which starts at 2, never wraps, so AesCtr's
  /// 128-bit counter gives GCM's keystream.
  static constexpr uint64_t kMaxTextSize = (uint64_t{1} << 36) - 32;

  /// Creates a context from a 16/24/32-byte AES key.
  static Result<AesGcm> Create(ByteSpan key);

  /// Encrypts `text` in place under `nonce` and writes its tag into
  /// `tag`.
  Status Seal(ByteSpan nonce, MutableByteSpan text,
              MutableByteSpan tag) const;

  /// True when `tag` is the tag of `ciphertext` under `nonce`, compared
  /// in constant time. Decrypts nothing.
  bool Verify(ByteSpan nonce, ByteSpan ciphertext, ByteSpan tag) const;

  /// Decrypts `in`, the part of a verified ciphertext that starts
  /// `block` 16-byte blocks into it, into `out`. `out` may alias `in`.
  Status Decrypt(ByteSpan nonce, ByteSpan in, MutableByteSpan out,
                 uint32_t block = 0) const;

 private:
  explicit AesGcm(AesCtr ctr) : ctr_(std::move(ctr)) {}

  /// The tag of `ciphertext` under `nonce`.
  std::array<uint8_t, kTagSize> Tag(ByteSpan nonce,
                                    ByteSpan ciphertext) const;

  AesCtr ctr_;
  /// H = E_K(0^128) and its powers (kernels::ExpandGhashKey).
  SHPIR_SECRET std::array<uint8_t, kernels::kGhashKeyBytes> ghash_key_{};
};

}  // namespace shpir::crypto

#endif  // SHPIR_CRYPTO_GCM_H_
