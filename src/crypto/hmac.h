#ifndef SHPIR_CRYPTO_HMAC_H_
#define SHPIR_CRYPTO_HMAC_H_

#include <array>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/sha256.h"

namespace shpir::crypto {

/// HMAC-SHA-256 (RFC 2104 / FIPS 198-1). The key's inner and outer pad
/// blocks are hashed once, at construction; each tag resumes from those
/// two SHA-256 states.
class HmacSha256 {
 public:
  static constexpr size_t kTagSize = Sha256::kDigestSize;
  using Tag = Sha256::Digest;

  /// Creates an HMAC context keyed with `key` (any length; keys longer
  /// than the SHA-256 block size are hashed first, per the spec).
  explicit HmacSha256(ByteSpan key);

  /// Computes the tag of `data`.
  Tag Compute(ByteSpan data) const;

  /// Verifies `tag` against `data` in constant time.
  bool Verify(ByteSpan data, ByteSpan tag) const;

 private:
  /// SHA-256 states after absorbing key XOR ipad and key XOR opad. They
  /// are derived MAC key material: comparisons against anything computed
  /// from them must go through crypto::ConstantTimeEquals.
  SHPIR_SECRET Sha256 ipad_state_;
  SHPIR_SECRET Sha256 opad_state_;
};

}  // namespace shpir::crypto

#endif  // SHPIR_CRYPTO_HMAC_H_
