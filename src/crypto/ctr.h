#ifndef SHPIR_CRYPTO_CTR_H_
#define SHPIR_CRYPTO_CTR_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"
#include "common/secret.h"
#include "crypto/aes.h"

namespace shpir::crypto {

/// AES-CTR stream cipher (NIST SP 800-38A). The 16-byte counter block is
/// the concatenation of a caller-supplied nonce and a big-endian block
/// counter; encryption and decryption are the same operation.
///
/// Crypt runs on AES-NI, eight blocks at a time, where CPUID reports it,
/// and on the portable T-table cipher elsewhere (crypto/kernels.h). Both
/// produce the same bytes.
class AesCtr {
 public:
  /// Creates a CTR context from a 16/24/32-byte AES key.
  static Result<AesCtr> Create(ByteSpan key);

  /// XORs `in` with the keystream derived from `iv` (16 bytes, the full
  /// initial counter block) into `out`. `out.size()` must equal
  /// `in.size()`; out may alias in. The counter increments over the whole
  /// 128-bit block, matching SP 800-38A's F.5 test vectors.
  Status Crypt(ByteSpan iv, ByteSpan in, MutableByteSpan out) const;

  /// Convenience wrapper building the initial counter block from a
  /// 12-byte nonce and the 4-byte big-endian block counter `block`:
  /// zero starts the keystream, and `block` = j resumes it at byte 16j.
  Status CryptWithNonce(ByteSpan nonce12, ByteSpan in, MutableByteSpan out,
                        uint32_t block = 0) const;

 private:
  explicit AesCtr(Aes aes) : aes_(std::move(aes)) {}

  Aes aes_;
  /// The same key's round keys in the byte order AES-NI consumes, up to
  /// 15 keys of 16 bytes (AES-256).
  SHPIR_SECRET std::array<uint8_t, 240> round_keys_{};
};

}  // namespace shpir::crypto

#endif  // SHPIR_CRYPTO_CTR_H_
