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

  /// first.Update(a) and second.Update(b) in one pass. When the two
  /// states have absorbed equally many bytes and `a` and `b` are equally
  /// long, their blocks line up and are compressed together, two SHA-NI
  /// lanes at once where CPUID reports SHA-NI; otherwise the two
  /// updates run one after the other.
  static void UpdatePair(Sha256& first, ByteSpan a, Sha256& second,
                         ByteSpan b);

  /// {first.Finalize(), second.Finalize()}, compressed together under
  /// the same condition as UpdatePair.
  static std::array<Digest, 2> FinalizePair(Sha256& first, Sha256& second);

 private:
  /// Update over `lanes` states with equal histories and equally long
  /// inputs, so every lane's blocks fall at the same offsets.
  template <size_t lanes>
  static void AbsorbLanes(const std::array<Sha256*, lanes>& hashers,
                          const std::array<ByteSpan, lanes>& data);

  /// Finalize over `lanes` states with equal histories.
  template <size_t lanes>
  static std::array<Digest, lanes> FinalizeLanes(
      const std::array<Sha256*, lanes>& hashers);

  /// Compresses `blocks` consecutive 64-byte blocks of `data[l]` into
  /// lane l's state_: SHA-NI where CPUID reports it (both lanes in one
  /// two-lane kernel call), the portable kernel lane by lane elsewhere.
  template <size_t lanes>
  static void CompressLanes(const std::array<Sha256*, lanes>& hashers,
                            const std::array<const uint8_t*, lanes>& data,
                            size_t blocks);

  std::array<uint32_t, 8> state_;
  std::array<uint8_t, kBlockSize> buffer_{};
  size_t buffer_len_;
  uint64_t total_len_;
};

}  // namespace shpir::crypto

#endif  // SHPIR_CRYPTO_SHA256_H_
