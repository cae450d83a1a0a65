#ifndef SHPIR_CRYPTO_SHA256_H_
#define SHPIR_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace shpir::crypto {

/// SHA-256 (FIPS 180-4), incremental interface. The compression runs on
/// SHA-NI where CPUID reports it, and in portable code elsewhere
/// (crypto/kernels.h).
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  using Digest = std::array<uint8_t, kDigestSize>;

  Sha256();

  /// Absorbs `data` into the hash state.
  void Update(ByteSpan data);

  /// Finalizes and returns the digest. The object must be Reset() before
  /// further use.
  Digest Finalize();

  /// Restores the initial state.
  void Reset();

  /// One-shot convenience.
  static Digest Hash(ByteSpan data);

 private:
  /// Compresses `blocks` consecutive 64-byte blocks into state_.
  void ProcessBlocks(const uint8_t* data, size_t blocks);

  std::array<uint32_t, 8> state_;
  std::array<uint8_t, kBlockSize> buffer_{};
  size_t buffer_len_;
  uint64_t total_len_;
};

}  // namespace shpir::crypto

#endif  // SHPIR_CRYPTO_SHA256_H_
