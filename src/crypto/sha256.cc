#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/check.h"
#include "crypto/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace shpir::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::Update(ByteSpan data) { AbsorbLanes<1>({this}, {data}); }

Sha256::Digest Sha256::Finalize() { return FinalizeLanes<1>({this})[0]; }

Sha256::Digest Sha256::Hash(ByteSpan data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

void Sha256::UpdatePair(Sha256& first, ByteSpan a, Sha256& second,
                        ByteSpan b) {
  if (first.total_len_ == second.total_len_ && a.size() == b.size()) {
    AbsorbLanes<2>({&first, &second}, {a, b});
  } else {
    first.Update(a);
    second.Update(b);
  }
}

std::array<Sha256::Digest, 2> Sha256::FinalizePair(Sha256& first,
                                                   Sha256& second) {
  if (first.total_len_ == second.total_len_) {
    return FinalizeLanes<2>({&first, &second});
  }
  return {first.Finalize(), second.Finalize()};
}

template <size_t lanes>
void Sha256::AbsorbLanes(const std::array<Sha256*, lanes>& hashers,
                         const std::array<ByteSpan, lanes>& data) {
  // Every lane has the same buffer_len_ and input length, so the first
  // lane's bookkeeping decides for all of them.
  const size_t len = data[0].size();
  const size_t buffered = hashers[0]->buffer_len_;
  size_t offset = 0;
  if (buffered > 0 && len > 0) {
    offset = std::min(kBlockSize - buffered, len);
    for (size_t l = 0; l < lanes; ++l) {
      std::memcpy(hashers[l]->buffer_.data() + buffered, data[l].data(),
                  offset);
    }
    if (buffered + offset == kBlockSize) {
      std::array<const uint8_t*, lanes> blocks;
      for (size_t l = 0; l < lanes; ++l) {
        blocks[l] = hashers[l]->buffer_.data();
      }
      CompressLanes<lanes>(hashers, blocks, 1);
    }
  }
  const size_t whole_blocks = (len - offset) / kBlockSize;
  if (whole_blocks > 0) {
    std::array<const uint8_t*, lanes> blocks;
    for (size_t l = 0; l < lanes; ++l) {
      blocks[l] = data[l].data() + offset;
    }
    CompressLanes<lanes>(hashers, blocks, whole_blocks);
  }
  const size_t tail = len - offset - whole_blocks * kBlockSize;
  for (size_t l = 0; l < lanes; ++l) {
    Sha256& h = *hashers[l];
    h.total_len_ += len;
    if (tail > 0) {
      std::memcpy(h.buffer_.data(), data[l].data() + len - tail, tail);
      h.buffer_len_ = tail;
    } else {
      h.buffer_len_ = (buffered + offset) % kBlockSize;
    }
  }
}

template <size_t lanes>
std::array<Sha256::Digest, lanes> Sha256::FinalizeLanes(
    const std::array<Sha256*, lanes>& hashers) {
  const uint64_t bit_len = hashers[0]->total_len_ * 8;
  const size_t buffered = hashers[0]->buffer_len_;
  const uint8_t pad[kBlockSize * 2] = {0x80};
  // Pad to 56 mod 64, then append the 64-bit big-endian length.
  const size_t pad_len = (buffered < 56) ? (56 - buffered) : (120 - buffered);
  std::array<ByteSpan, lanes> pads;
  pads.fill(ByteSpan(pad, pad_len));
  AbsorbLanes<lanes>(hashers, pads);
  // The length block bypasses AbsorbLanes' total_len_ bookkeeping.
  std::array<const uint8_t*, lanes> blocks;
  for (size_t l = 0; l < lanes; ++l) {
    Sha256& h = *hashers[l];
    StoreBE64(bit_len, h.buffer_.data() + h.buffer_len_);
    blocks[l] = h.buffer_.data();
  }
  CompressLanes<lanes>(hashers, blocks, 1);
  std::array<Digest, lanes> digests;
  for (size_t l = 0; l < lanes; ++l) {
    for (int i = 0; i < 8; ++i) {
      StoreBE32(hashers[l]->state_[i], digests[l].data() + 4 * i);
    }
  }
  return digests;
}

template <size_t lanes>
void Sha256::CompressLanes(const std::array<Sha256*, lanes>& hashers,
                           const std::array<const uint8_t*, lanes>& data,
                           size_t blocks) {
  if (!kernels::HasShaNi()) {
    for (size_t l = 0; l < lanes; ++l) {
      kernels::Sha256BlocksPortable(hashers[l]->state_.data(), data[l],
                                    blocks);
    }
  } else if constexpr (lanes == 2) {
    kernels::Sha256BlocksHardwareX2(hashers[0]->state_.data(), data[0],
                                    hashers[1]->state_.data(), data[1],
                                    blocks);
  } else {
    static_assert(lanes == 1, "the SHA-NI kernels run one or two lanes");
    kernels::Sha256BlocksHardware(hashers[0]->state_.data(), data[0],
                                  blocks);
  }
}

namespace kernels {

void Sha256BlocksPortable(uint32_t state[8], const uint8_t* data,
                          size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = LoadBE32(data + 4 * i);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

bool HasShaNi() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
        (ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) {
      return false;
    }
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
           (ebx & bit_SHA) != 0;
  }();
  return has;
}

// SHA256RNDS2 keeps the chaining value as two registers, {a, b, e, f}
// and {c, d, g, h} (high lane to low: ABEF, CDGH), and runs two rounds
// per call on the low two words of a W + K vector. Each 128-bit message
// vector holds four schedule words, W[4i .. 4i + 3]. The kernel runs
// `lanes` independent chains and issues each step for every lane in
// turn, so one chain's RNDS2 latency overlaps the other's. Kept inline,
// the lane loops unroll and the vectors stay in registers.
template <size_t lanes>
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void
ShaNiLanes(uint32_t* const (&states)[lanes],
           const uint8_t* const (&data)[lanes], size_t blocks) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i abef[lanes];
  __m128i cdgh[lanes];
#pragma GCC unroll 2
  for (size_t l = 0; l < lanes; ++l) {
    const __m128i dcba =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(states[l]));
    const __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(states[l] + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    abef[l] = _mm_alignr_epi8(cdab, efgh, 8);
    cdgh[l] = _mm_blend_epi16(efgh, cdab, 0xF0);
  }
  for (size_t offset = 0; offset < blocks * Sha256::kBlockSize;
       offset += Sha256::kBlockSize) {
    __m128i abef_in[lanes];
    __m128i cdgh_in[lanes];
    __m128i w[lanes][4];
#pragma GCC unroll 2
    for (size_t l = 0; l < lanes; ++l) {
      abef_in[l] = abef[l];
      cdgh_in[l] = cdgh[l];
      for (size_t i = 0; i < 4; ++i) {
        w[l][i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                data[l] + offset + 16 * i)),
            kByteSwap);
      }
    }
    // Sixteen groups of four rounds. Group i consumes W[4i .. 4i + 3]
    // from w[i % 4], then that slot takes group i + 4's words:
    // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
#pragma GCC unroll 16
    for (size_t i = 0; i < 16; ++i) {
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i));
      __m128i wk[lanes];
#pragma GCC unroll 2
      for (size_t l = 0; l < lanes; ++l) {
        wk[l] = _mm_add_epi32(w[l][i % 4], k);
        cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk[l]);
      }
#pragma GCC unroll 2
      for (size_t l = 0; l < lanes; ++l) {
        abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l],
                                        _mm_shuffle_epi32(wk[l], 0x0E));
      }
      if (i < 12) {
#pragma GCC unroll 2
        for (size_t l = 0; l < lanes; ++l) {
          const __m128i w7 =
              _mm_alignr_epi8(w[l][(i + 3) % 4], w[l][(i + 2) % 4], 4);
          w[l][i % 4] = _mm_sha256msg2_epu32(
              _mm_add_epi32(
                  _mm_sha256msg1_epu32(w[l][i % 4], w[l][(i + 1) % 4]), w7),
              w[l][(i + 3) % 4]);
        }
      }
    }
#pragma GCC unroll 2
    for (size_t l = 0; l < lanes; ++l) {
      abef[l] = _mm_add_epi32(abef[l], abef_in[l]);
      cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_in[l]);
    }
  }
#pragma GCC unroll 2
  for (size_t l = 0; l < lanes; ++l) {
    const __m128i feba = _mm_shuffle_epi32(abef[l], 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh[l], 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(states[l]),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(states[l] + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
  }
}

__attribute__((target("sha,sse4.1,ssse3"))) void Sha256BlocksHardware(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  ShaNiLanes<1>({state}, {data}, blocks);
}

__attribute__((target("sha,sse4.1,ssse3"))) void Sha256BlocksHardwareX2(
    uint32_t state_a[8], const uint8_t* a, uint32_t state_b[8],
    const uint8_t* b, size_t blocks) {
  ShaNiLanes<2>({state_a, state_b}, {a, b}, blocks);
}

#else  // Not x86: only the portable kernel exists.

bool HasShaNi() { return false; }

void Sha256BlocksHardware(uint32_t*, const uint8_t*, size_t) {
  // HasShaNi() is false here, so nothing reaches this.
  SHPIR_CHECK(false);
}

void Sha256BlocksHardwareX2(uint32_t*, const uint8_t*, uint32_t*,
                            const uint8_t*, size_t) {
  SHPIR_CHECK(false);
}

#endif

}  // namespace kernels

}  // namespace shpir::crypto
