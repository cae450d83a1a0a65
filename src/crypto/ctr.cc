#include "crypto/ctr.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "crypto/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace shpir::crypto {

namespace kernels {

namespace {

// Increments a 128-bit big-endian counter block.
void IncrementCounter(uint8_t block[16]) {
  for (int i = 15; i >= 0; --i) {
    if (++block[i] != 0) {
      break;
    }
  }
}

}  // namespace

void AesCtrPortable(const Aes& aes, const uint8_t iv[16], const uint8_t* in,
                    uint8_t* out, size_t len) {
  uint8_t counter[Aes::kBlockSize];
  std::memcpy(counter, iv, Aes::kBlockSize);
  uint8_t keystream[Aes::kBlockSize];
  size_t offset = 0;
  while (offset < len) {
    aes.EncryptBlock(counter, keystream);
    const size_t chunk = std::min(len - offset, Aes::kBlockSize);
    for (size_t i = 0; i < chunk; ++i) {
      out[offset + i] = in[offset + i] ^ keystream[i];
    }
    IncrementCounter(counter);
    offset += chunk;
  }
}

#if defined(__x86_64__) || defined(__i386__)

bool HasAesNi() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & bit_AES) != 0 && (ecx & bit_SSSE3) != 0 &&
           (ecx & bit_SSE4_1) != 0;
  }();
  return has;
}

// XORs `lanes` consecutive keystream blocks over `lanes` whole blocks
// of `in` into `out`, advancing the counter. Kept inline, the lane loops
// unroll and the blocks stay in registers.
template <size_t lanes>
__attribute__((target("aes,sse4.1,ssse3"), always_inline)) inline void
CtrLanes(const __m128i* keys, int rounds, uint64_t& high, uint64_t& low,
         const uint8_t* in, uint8_t* out) {
  __m128i blocks[lanes];
#pragma GCC unroll 8
  for (size_t j = 0; j < lanes; ++j) {
    const __m128i counter =
        _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(low)),
                       static_cast<long long>(__builtin_bswap64(high)));
    blocks[j] = _mm_xor_si128(counter, keys[0]);
    low += 1;
    high += (low == 0) ? 1 : 0;
  }
  for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
    for (size_t j = 0; j < lanes; ++j) {
      blocks[j] = _mm_aesenc_si128(blocks[j], keys[r]);
    }
  }
#pragma GCC unroll 8
  for (size_t j = 0; j < lanes; ++j) {
    const __m128i keystream = _mm_aesenclast_si128(blocks[j], keys[rounds]);
    const __m128i text = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(in + Aes::kBlockSize * j));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + Aes::kBlockSize * j),
                     _mm_xor_si128(text, keystream));
  }
}

__attribute__((target("aes,sse4.1,ssse3"))) void AesCtrHardware(
    const uint8_t* schedule, int rounds, const uint8_t iv[16],
    const uint8_t* in, uint8_t* out, size_t len) {
  __m128i keys[15];
  for (int r = 0; r <= rounds; ++r) {
    keys[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(schedule + Aes::kBlockSize * r));
  }
  // The counter as two 64-bit halves, so a carry crosses all 128 bits.
  uint64_t high = LoadBE64(iv);
  uint64_t low = LoadBE64(iv + 8);
  // Eight blocks in flight while they last; the rest in groups of four,
  // two and one, so the tail costs only the blocks it covers.
  size_t done = 0;
  for (; len - done >= 8 * Aes::kBlockSize; done += 8 * Aes::kBlockSize) {
    CtrLanes<8>(keys, rounds, high, low, in + done, out + done);
  }
  if (len - done >= 4 * Aes::kBlockSize) {
    CtrLanes<4>(keys, rounds, high, low, in + done, out + done);
    done += 4 * Aes::kBlockSize;
  }
  if (len - done >= 2 * Aes::kBlockSize) {
    CtrLanes<2>(keys, rounds, high, low, in + done, out + done);
    done += 2 * Aes::kBlockSize;
  }
  if (len - done >= Aes::kBlockSize) {
    CtrLanes<1>(keys, rounds, high, low, in + done, out + done);
    done += Aes::kBlockSize;
  }
  // A last partial block runs through this buffer, so the lanes read
  // and write whole blocks.
  if (done < len) {
    alignas(16) uint8_t last[Aes::kBlockSize] = {};
    std::memcpy(last, in + done, len - done);
    CtrLanes<1>(keys, rounds, high, low, last, last);
    std::memcpy(out + done, last, len - done);
  }
}

#else  // Not x86: only the portable kernel exists.

bool HasAesNi() { return false; }

void AesCtrHardware(const uint8_t*, int, const uint8_t*, const uint8_t*,
                    uint8_t*, size_t) {
  // HasAesNi() is false here, so nothing reaches this.
  SHPIR_CHECK(false);
}

#endif

}  // namespace kernels

Result<AesCtr> AesCtr::Create(ByteSpan key) {
  SHPIR_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  AesCtr ctr(std::move(aes));
  static_assert(sizeof(ctr.round_keys_) == kernels::kMaxAesScheduleBytes);
  kernels::ExpandAesKey(key, ctr.round_keys_.data());
  return ctr;
}

Status AesCtr::Crypt(ByteSpan iv, ByteSpan in, MutableByteSpan out) const {
  if (iv.size() != Aes::kBlockSize) {
    return InvalidArgumentError("CTR IV must be 16 bytes");
  }
  if (in.size() != out.size()) {
    return InvalidArgumentError("CTR output size must match input size");
  }
  if (kernels::HasAesNi()) {
    kernels::AesCtrHardware(round_keys_.data(), aes_.rounds(), iv.data(),
                            in.data(), out.data(), in.size());
  } else {
    kernels::AesCtrPortable(aes_, iv.data(), in.data(), out.data(),
                            in.size());
  }
  return OkStatus();
}

Status AesCtr::CryptWithNonce(ByteSpan nonce12, ByteSpan in,
                              MutableByteSpan out, uint32_t block) const {
  if (nonce12.size() != 12) {
    return InvalidArgumentError("CTR nonce must be 12 bytes");
  }
  uint8_t iv[Aes::kBlockSize];
  std::memcpy(iv, nonce12.data(), 12);
  StoreBE32(block, iv + 12);
  return Crypt(ByteSpan(iv, Aes::kBlockSize), in, out);
}

}  // namespace shpir::crypto
