#ifndef SHPIR_CRYPTO_AES_H_
#define SHPIR_CRYPTO_AES_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace shpir::crypto {

/// AES block cipher (FIPS 197) supporting 128-, 192- and 256-bit keys.
///
/// Portable T-table implementation (the "equivalent inverse cipher" for
/// decryption) written for the secure-coprocessor simulator. It is
/// correct (validated against the FIPS 197 and NIST SP 800-38A vectors
/// in tests) but its table loads are indexed by key- and data-dependent
/// bytes, so it makes no claim of resistance to cache-timing side
/// channels; the simulated coprocessor is assumed physically shielded,
/// matching the paper's IBM 4764 threat model.
///
/// That caveat covers only this portable fallback. Bulk encryption goes
/// through AesCtr, which runs on AES-NI wherever CPUID reports it
/// (crypto/kernels.h): the AES-NI rounds make no key- or data-indexed
/// table loads. The key schedule both paths share is expanded here,
/// with S-box lookups, once per key.
class Aes {
 public:
  static constexpr size_t kBlockSize = 16;

  /// Creates a cipher instance from a 16/24/32-byte key. Any other key
  /// length yields InvalidArgument.
  static Result<Aes> Create(ByteSpan key);

  /// Encrypts one 16-byte block in place (out may alias in).
  void EncryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

  /// Decrypts one 16-byte block in place (out may alias in).
  void DecryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

  /// Number of rounds for the configured key size (10/12/14).
  int rounds() const { return rounds_; }

 private:
  Aes() = default;

  void ExpandKey(ByteSpan key);

  // Round keys as packed big-endian column words, 4 per round plus the
  // initial AddRoundKey (max 60 for AES-256). dec_keys_ hold the
  // equivalent-inverse-cipher schedule.
  std::array<uint32_t, 60> enc_keys_{};
  std::array<uint32_t, 60> dec_keys_{};
  int rounds_ = 0;
};

}  // namespace shpir::crypto

#endif  // SHPIR_CRYPTO_AES_H_
