#include "crypto/gcm.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "crypto/constant_time.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace shpir::crypto {

namespace kernels {

namespace {

// A GF(2^128) element in GCM's bit order as two big-endian words: `hi`
// holds bytes 0-7, and its top bit is the coefficient of x^0.
struct Element {
  uint64_t hi;
  uint64_t lo;
};

Element LoadElement(const uint8_t* bytes) {
  return {LoadBE64(bytes), LoadBE64(bytes + 8)};
}

void StoreElement(Element e, uint8_t* bytes) {
  StoreBE64(e.hi, bytes);
  StoreBE64(e.lo, bytes + 8);
}

// The low 64 bits of the carry-less product of a and b, from integer
// multiplies. Each operand splits into four sets of bits, four places
// apart; a product of two sets puts its sum of ones at positions four
// apart, and below bit 60 no such sum exceeds 15 ones, so its carries
// stay in the three positions above it, which the masks drop. (The sums
// of 16 ones sit at bits 60-63 and carry past bit 63.)
uint64_t CarrylessLow(uint64_t a, uint64_t b) {
  constexpr uint64_t m0 = 0x1111111111111111;
  constexpr uint64_t m1 = m0 << 1;
  constexpr uint64_t m2 = m0 << 2;
  constexpr uint64_t m3 = m0 << 3;
  const uint64_t a0 = a & m0, a1 = a & m1, a2 = a & m2, a3 = a & m3;
  const uint64_t b0 = b & m0, b1 = b & m1, b2 = b & m2, b3 = b & m3;
  const uint64_t z0 = (a0 * b0) ^ (a1 * b3) ^ (a2 * b2) ^ (a3 * b1);
  const uint64_t z1 = (a0 * b1) ^ (a1 * b0) ^ (a2 * b3) ^ (a3 * b2);
  const uint64_t z2 = (a0 * b2) ^ (a1 * b1) ^ (a2 * b0) ^ (a3 * b3);
  const uint64_t z3 = (a0 * b3) ^ (a1 * b2) ^ (a2 * b1) ^ (a3 * b0);
  return (z0 & m0) | (z1 & m1) | (z2 & m2) | (z3 & m3);
}

uint64_t ReverseBits(uint64_t x) {
  x = ((x & 0x5555555555555555) << 1) | ((x >> 1) & 0x5555555555555555);
  x = ((x & 0x3333333333333333) << 2) | ((x >> 2) & 0x3333333333333333);
  x = ((x & 0x0f0f0f0f0f0f0f0f) << 4) | ((x >> 4) & 0x0f0f0f0f0f0f0f0f);
  x = ((x & 0x00ff00ff00ff00ff) << 8) | ((x >> 8) & 0x00ff00ff00ff00ff);
  x = ((x & 0x0000ffff0000ffff) << 16) | ((x >> 16) & 0x0000ffff0000ffff);
  return (x << 32) | (x >> 32);
}

// x * y in 64-bit limbs, constant time: no tables, no branches. Read as
// integers, GCM's elements hold their coefficients in reverse (x^0 at
// the top), so their carry-less product is the reversed product,
// shifted right by one bit. Karatsuba builds it from three 64-bit
// products; each one's high half is the reversed low half of the
// product of the reversed words. The 256 bits shift left by one and
// fold modulo x^128 + x^7 + x^2 + x + 1, the top word first.
Element Multiply(Element x, Element y) {
  const uint64_t x2 = x.hi ^ x.lo;
  const uint64_t y2 = y.hi ^ y.lo;
  const uint64_t xr0 = ReverseBits(x.lo), xr1 = ReverseBits(x.hi);
  const uint64_t yr0 = ReverseBits(y.lo), yr1 = ReverseBits(y.hi);
  const uint64_t lo0 = CarrylessLow(x.lo, y.lo);
  const uint64_t lo1 = CarrylessLow(x.hi, y.hi);
  const uint64_t lo2 = CarrylessLow(x2, y2) ^ lo0 ^ lo1;
  const uint64_t hr0 = CarrylessLow(xr0, yr0);
  const uint64_t hr1 = CarrylessLow(xr1, yr1);
  const uint64_t hr2 = CarrylessLow(xr0 ^ xr1, yr0 ^ yr1) ^ hr0 ^ hr1;
  const uint64_t hi0 = ReverseBits(hr0) >> 1;
  const uint64_t hi1 = ReverseBits(hr1) >> 1;
  const uint64_t hi2 = ReverseBits(hr2) >> 1;
  // The product's words, v3 the most significant.
  uint64_t v0 = lo0;
  uint64_t v1 = hi0 ^ lo2;
  uint64_t v2 = lo1 ^ hi2;
  uint64_t v3 = hi1;
  v3 = (v3 << 1) | (v2 >> 63);
  v2 = (v2 << 1) | (v1 >> 63);
  v1 = (v1 << 1) | (v0 >> 63);
  v0 <<= 1;
  v2 ^= v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
  v1 ^= (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
  v3 ^= v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
  v2 ^= (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
  return {v3, v2};
}

}  // namespace

void ExpandGhashKey(const uint8_t h[16], uint8_t key[kGhashKeyBytes]) {
  const Element base = LoadElement(h);
  Element power = base;
  StoreElement(power, key);
  for (size_t i = 1; i < kGhashPowers; ++i) {
    power = Multiply(power, base);
    StoreElement(power, key + 16 * i);
  }
}

void GhashPortable(const uint8_t key[kGhashKeyBytes], uint8_t y[16],
                   const uint8_t* data, size_t len) {
  const Element h = LoadElement(key);
  Element acc = LoadElement(y);
  for (size_t done = 0; done < len; done += 16) {
    uint8_t block[16] = {};
    std::memcpy(block, data + done, std::min<size_t>(16, len - done));
    const Element x = LoadElement(block);
    acc = Multiply({acc.hi ^ x.hi, acc.lo ^ x.lo}, h);
  }
  StoreElement(acc, y);
}

#if defined(__x86_64__) || defined(__i386__)

bool HasPclmul() {
  // CPUID leaf 1 reports PCLMULQDQ in ECX bit 1.
  constexpr unsigned kPclmulBit = 1u << 1;
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & kPclmulBit) != 0 && (ecx & bit_SSSE3) != 0 &&
           (ecx & bit_SSE4_1) != 0;
  }();
  return has;
}

namespace {

// GCM puts the coefficient of x^0 in the top bit of byte 0. Reversing a
// block's bytes gives the 128-bit integer whose bits run the other way
// round, x^0 at bit 127: the reflected form the multiply below works in.
__attribute__((target("pclmul,sse4.1,ssse3"), always_inline)) inline __m128i
Reflect(__m128i block) {
  return _mm_shuffle_epi8(
      block, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15));
}

// Adds the 256-bit carry-less product a * b into lo, mid and hi: its low
// half, its two middle terms and its high half.
__attribute__((target("pclmul,sse4.1,ssse3"), always_inline)) inline void
MultiplyAdd(__m128i a, __m128i b, __m128i& lo, __m128i& mid, __m128i& hi) {
  lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(a, b, 0x00));
  hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(a, b, 0x11));
  mid = _mm_xor_si128(mid, _mm_clmulepi64_si128(a, b, 0x01));
  mid = _mm_xor_si128(mid, _mm_clmulepi64_si128(a, b, 0x10));
}

// Reduces a sum of products of reflected elements to the reflected
// element it stands for (Gueron and Kounavis, "Intel Carry-Less
// Multiplication Instruction and its Usage for Computing the GCM Mode",
// Algorithm 5). The product of two reflected 128-bit values is the
// reflected 255-bit product, so the 256 bits shift left by one; then
// they fold modulo x^128 + x^7 + x^2 + x + 1 in two phases.
__attribute__((target("pclmul,sse4.1,ssse3"), always_inline)) inline __m128i
Reduce(__m128i lo, __m128i mid, __m128i hi) {
  lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
  hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));
  // [hi : lo] <<= 1, carrying across the 32-bit lanes and the halves.
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_or_si128(_mm_slli_epi32(hi, 1),
                                 _mm_slli_si128(hi_carry, 4)),
                    _mm_srli_si128(lo_carry, 12));
  // First phase: the low half's multiples of x^128 times x^7, x^2, x.
  const __m128i folded = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  lo = _mm_xor_si128(lo, _mm_slli_si128(folded, 12));
  // Second phase.
  const __m128i shifted = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_xor_si128(_mm_srli_epi32(lo, 7), _mm_srli_si128(folded, 4)));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, shifted));
}

// Folds `blocks` blocks at `data`, 1 to kGhashPowers, into y with one
// reduction: (y ^ X_1) * H^blocks ^ X_2 * H^(blocks - 1) ^ ... ^
// X_blocks * H, which equals `blocks` steps of y = (y ^ X) * H.
// `powers[i]` is H^(i + 1). Inlined with a constant count, the loop
// unrolls.
__attribute__((target("pclmul,sse4.1,ssse3"), always_inline)) inline __m128i
GhashLanes(const __m128i (&powers)[kGhashPowers], __m128i y,
           const uint8_t* data, size_t blocks) {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
#pragma GCC unroll 8
  for (size_t j = 0; j < blocks; ++j) {
    __m128i x = Reflect(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)));
    if (j == 0) {
      x = _mm_xor_si128(x, y);
    }
    MultiplyAdd(x, powers[blocks - 1 - j], lo, mid, hi);
  }
  return Reduce(lo, mid, hi);
}

}  // namespace

__attribute__((target("pclmul,sse4.1,ssse3"))) void GhashHardware(
    const uint8_t key[kGhashKeyBytes], uint8_t y[16], const uint8_t* data,
    size_t len) {
  __m128i powers[kGhashPowers];
  for (size_t i = 0; i < kGhashPowers; ++i) {
    powers[i] = Reflect(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(key + 16 * i)));
  }
  __m128i acc = Reflect(_mm_loadu_si128(reinterpret_cast<const __m128i*>(y)));
  constexpr size_t kStride = 16 * kGhashPowers;
  size_t done = 0;
  for (; len - done >= kStride; done += kStride) {
    acc = GhashLanes(powers, acc, data + done, kGhashPowers);
  }
  // The last blocks, the partial one padded with zeros, fold together
  // from this buffer.
  if (done < len) {
    alignas(16) uint8_t tail[kStride] = {};
    std::memcpy(tail, data + done, len - done);
    acc = GhashLanes(powers, acc, tail, (len - done + 15) / 16);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(y), Reflect(acc));
}

#else  // Not x86: only the portable kernel exists.

bool HasPclmul() { return false; }

void GhashHardware(const uint8_t*, uint8_t*, const uint8_t*, size_t) {
  // HasPclmul() is false here, so nothing reaches this.
  SHPIR_CHECK(false);
}

#endif

}  // namespace kernels

Result<AesGcm> AesGcm::Create(ByteSpan key) {
  SHPIR_ASSIGN_OR_RETURN(AesCtr ctr, AesCtr::Create(key));
  AesGcm gcm(std::move(ctr));
  // H = E_K(0^128), the keystream block of the all-zero counter block.
  const uint8_t zero[Aes::kBlockSize] = {};
  uint8_t h[Aes::kBlockSize] = {};
  SHPIR_RETURN_IF_ERROR(gcm.ctr_.Crypt(ByteSpan(zero, sizeof(zero)),
                                       ByteSpan(h, sizeof(h)),
                                       MutableByteSpan(h, sizeof(h))));
  kernels::ExpandGhashKey(h, gcm.ghash_key_.data());
  return gcm;
}

Status AesGcm::Seal(ByteSpan nonce, MutableByteSpan text,
                    MutableByteSpan tag) const {
  if (nonce.size() != kNonceSize) {
    return InvalidArgumentError("GCM nonce must be 12 bytes");
  }
  if (tag.size() != kTagSize) {
    return InvalidArgumentError("GCM tag must be 16 bytes");
  }
  if (text.size() > kMaxTextSize) {
    return InvalidArgumentError("GCM text exceeds 2^39 - 256 bits");
  }
  SHPIR_RETURN_IF_ERROR(
      ctr_.CryptWithNonce(nonce, text, text, /*block=*/2));
  const std::array<uint8_t, kTagSize> computed = Tag(nonce, text);
  std::memcpy(tag.data(), computed.data(), kTagSize);
  return OkStatus();
}

bool AesGcm::Verify(ByteSpan nonce, ByteSpan ciphertext,
                    ByteSpan tag) const {
  if (nonce.size() != kNonceSize || ciphertext.size() > kMaxTextSize) {
    return false;
  }
  const std::array<uint8_t, kTagSize> expected = Tag(nonce, ciphertext);
  return ConstantTimeEquals(expected, tag);
}

Status AesGcm::Decrypt(ByteSpan nonce, ByteSpan in, MutableByteSpan out,
                       uint32_t block) const {
  // The keystream's blocks 2 .. 2^32 - 1 carry the text.
  const uint64_t first = uint64_t{block} + 2;
  if (first + (in.size() + 15) / 16 > (uint64_t{1} << 32)) {
    return InvalidArgumentError("GCM text exceeds 2^39 - 256 bits");
  }
  return ctr_.CryptWithNonce(nonce, in, out, static_cast<uint32_t>(first));
}

std::array<uint8_t, AesGcm::kTagSize> AesGcm::Tag(
    ByteSpan nonce, ByteSpan ciphertext) const {
  // S = GHASH(C || 0^v || [len(A)]_64 || [len(C)]_64), with A empty.
  std::array<uint8_t, kTagSize> tag = {};
  uint8_t lengths[16] = {};
  StoreBE64(uint64_t{ciphertext.size()} * 8, lengths + 8);
  const auto ghash = kernels::HasPclmul() ? kernels::GhashHardware
                                          : kernels::GhashPortable;
  ghash(ghash_key_.data(), tag.data(), ciphertext.data(), ciphertext.size());
  ghash(ghash_key_.data(), tag.data(), lengths, sizeof(lengths));
  // T = S ^ E_K(nonce || 0^31 || 1), the keystream's block 1.
  SHPIR_CHECK_OK(ctr_.CryptWithNonce(nonce, tag, tag, /*block=*/1));
  return tag;
}

}  // namespace shpir::crypto
