#include "crypto/aes.h"

#include <cstring>

#include "crypto/kernels.h"

namespace shpir::crypto {

namespace {

// FIPS 197 S-box.
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

// Inverse S-box.
constexpr uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

// Round constants for the key schedule.
constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

// GF(2^8) multiply modulo x^8+x^4+x^3+x+1, constexpr for table building.
constexpr uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t result = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) {
      result ^= a;
    }
    const uint8_t high = static_cast<uint8_t>(a & 0x80);
    a = static_cast<uint8_t>(a << 1);
    if (high) {
      a ^= 0x1b;
    }
    b >>= 1;
  }
  return result;
}

// Encryption T-table: T0[x] packs MixColumns({02,01,01,03} * S(x)).
// T1..T3 are byte rotations of T0.
constexpr std::array<uint32_t, 256> MakeEncTable() {
  std::array<uint32_t, 256> table{};
  for (int x = 0; x < 256; ++x) {
    const uint8_t s = kSbox[x];
    table[x] = (static_cast<uint32_t>(GfMul(s, 2)) << 24) |
               (static_cast<uint32_t>(s) << 16) |
               (static_cast<uint32_t>(s) << 8) |
               static_cast<uint32_t>(GfMul(s, 3));
  }
  return table;
}

// Decryption T-table: D0[x] packs InvMixColumns({0e,09,0d,0b} * IS(x)).
constexpr std::array<uint32_t, 256> MakeDecTable() {
  std::array<uint32_t, 256> table{};
  for (int x = 0; x < 256; ++x) {
    const uint8_t s = kInvSbox[x];
    table[x] = (static_cast<uint32_t>(GfMul(s, 0x0e)) << 24) |
               (static_cast<uint32_t>(GfMul(s, 0x09)) << 16) |
               (static_cast<uint32_t>(GfMul(s, 0x0d)) << 8) |
               static_cast<uint32_t>(GfMul(s, 0x0b));
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTe = MakeEncTable();
constexpr std::array<uint32_t, 256> kTd = MakeDecTable();

inline uint32_t Ror8(uint32_t x) { return (x >> 8) | (x << 24); }

inline uint32_t Te0(uint8_t x) { return kTe[x]; }
inline uint32_t Te1(uint8_t x) { return Ror8(kTe[x]); }
inline uint32_t Te2(uint8_t x) { return Ror8(Ror8(kTe[x])); }
inline uint32_t Te3(uint8_t x) { return Ror8(Ror8(Ror8(kTe[x]))); }
inline uint32_t Td0(uint8_t x) { return kTd[x]; }
inline uint32_t Td1(uint8_t x) { return Ror8(kTd[x]); }
inline uint32_t Td2(uint8_t x) { return Ror8(Ror8(kTd[x])); }
inline uint32_t Td3(uint8_t x) { return Ror8(Ror8(Ror8(kTd[x]))); }

// InvMixColumns on a packed big-endian column word (for the decryption
// key schedule of the equivalent inverse cipher).
uint32_t InvMixColumnsWord(uint32_t w) {
  const uint8_t a0 = static_cast<uint8_t>(w >> 24);
  const uint8_t a1 = static_cast<uint8_t>(w >> 16);
  const uint8_t a2 = static_cast<uint8_t>(w >> 8);
  const uint8_t a3 = static_cast<uint8_t>(w);
  const uint8_t b0 = static_cast<uint8_t>(GfMul(a0, 0x0e) ^ GfMul(a1, 0x0b) ^
                                          GfMul(a2, 0x0d) ^ GfMul(a3, 0x09));
  const uint8_t b1 = static_cast<uint8_t>(GfMul(a0, 0x09) ^ GfMul(a1, 0x0e) ^
                                          GfMul(a2, 0x0b) ^ GfMul(a3, 0x0d));
  const uint8_t b2 = static_cast<uint8_t>(GfMul(a0, 0x0d) ^ GfMul(a1, 0x09) ^
                                          GfMul(a2, 0x0e) ^ GfMul(a3, 0x0b));
  const uint8_t b3 = static_cast<uint8_t>(GfMul(a0, 0x0b) ^ GfMul(a1, 0x0d) ^
                                          GfMul(a2, 0x09) ^ GfMul(a3, 0x0e));
  return (static_cast<uint32_t>(b0) << 24) |
         (static_cast<uint32_t>(b1) << 16) |
         (static_cast<uint32_t>(b2) << 8) | static_cast<uint32_t>(b3);
}

inline uint32_t LoadWordBE(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline void StoreWordBE(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

}  // namespace

namespace kernels {

int ExpandAesKey(ByteSpan key, uint8_t schedule[kMaxAesScheduleBytes]) {
  const int nk = static_cast<int>(key.size() / 4);  // Key length in words.
  const int rounds = nk + 6;
  const int total_words = 4 * (rounds + 1);
  uint8_t* w = schedule;
  std::memcpy(w, key.data(), key.size());
  for (int i = nk; i < total_words; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, w + 4 * (i - 1), 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon.
      const uint8_t t0 = temp[0];
      temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ kRcon[i / nk]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    } else if (nk > 6 && i % nk == 4) {
      // AES-256 extra SubWord.
      for (int j = 0; j < 4; ++j) {
        temp[j] = kSbox[temp[j]];
      }
    }
    for (int j = 0; j < 4; ++j) {
      w[4 * i + j] = static_cast<uint8_t>(w[4 * (i - nk) + j] ^ temp[j]);
    }
  }
  return rounds;
}

}  // namespace kernels

Result<Aes> Aes::Create(ByteSpan key) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32) {
    return InvalidArgumentError("AES key must be 16, 24 or 32 bytes");
  }
  Aes aes;
  aes.ExpandKey(key);
  return aes;
}

void Aes::ExpandKey(ByteSpan key) {
  uint8_t w[kernels::kMaxAesScheduleBytes];
  rounds_ = kernels::ExpandAesKey(key, w);
  const int total_words = 4 * (rounds_ + 1);
  for (int i = 0; i < total_words; ++i) {
    enc_keys_[i] = LoadWordBE(w + 4 * i);
  }
  // Equivalent-inverse-cipher schedule: reversed round order, with
  // InvMixColumns applied to the middle round keys.
  for (int round = 0; round <= rounds_; ++round) {
    for (int j = 0; j < 4; ++j) {
      uint32_t word = enc_keys_[4 * (rounds_ - round) + j];
      if (round != 0 && round != rounds_) {
        word = InvMixColumnsWord(word);
      }
      dec_keys_[4 * round + j] = word;
    }
  }
}

void Aes::EncryptBlock(const uint8_t in[kBlockSize],
                       uint8_t out[kBlockSize]) const {
  const uint32_t* rk = enc_keys_.data();
  uint32_t w0 = LoadWordBE(in) ^ rk[0];
  uint32_t w1 = LoadWordBE(in + 4) ^ rk[1];
  uint32_t w2 = LoadWordBE(in + 8) ^ rk[2];
  uint32_t w3 = LoadWordBE(in + 12) ^ rk[3];
  rk += 4;
  for (int round = 1; round < rounds_; ++round, rk += 4) {
    const uint32_t e0 = Te0(w0 >> 24) ^ Te1((w1 >> 16) & 0xff) ^
                        Te2((w2 >> 8) & 0xff) ^ Te3(w3 & 0xff) ^ rk[0];
    const uint32_t e1 = Te0(w1 >> 24) ^ Te1((w2 >> 16) & 0xff) ^
                        Te2((w3 >> 8) & 0xff) ^ Te3(w0 & 0xff) ^ rk[1];
    const uint32_t e2 = Te0(w2 >> 24) ^ Te1((w3 >> 16) & 0xff) ^
                        Te2((w0 >> 8) & 0xff) ^ Te3(w1 & 0xff) ^ rk[2];
    const uint32_t e3 = Te0(w3 >> 24) ^ Te1((w0 >> 16) & 0xff) ^
                        Te2((w1 >> 8) & 0xff) ^ Te3(w2 & 0xff) ^ rk[3];
    w0 = e0;
    w1 = e1;
    w2 = e2;
    w3 = e3;
  }
  // Final round: SubBytes + ShiftRows + AddRoundKey.
  const uint32_t e0 = (static_cast<uint32_t>(kSbox[w0 >> 24]) << 24) |
                      (static_cast<uint32_t>(kSbox[(w1 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(kSbox[(w2 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(kSbox[w3 & 0xff]);
  const uint32_t e1 = (static_cast<uint32_t>(kSbox[w1 >> 24]) << 24) |
                      (static_cast<uint32_t>(kSbox[(w2 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(kSbox[(w3 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(kSbox[w0 & 0xff]);
  const uint32_t e2 = (static_cast<uint32_t>(kSbox[w2 >> 24]) << 24) |
                      (static_cast<uint32_t>(kSbox[(w3 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(kSbox[(w0 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(kSbox[w1 & 0xff]);
  const uint32_t e3 = (static_cast<uint32_t>(kSbox[w3 >> 24]) << 24) |
                      (static_cast<uint32_t>(kSbox[(w0 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(kSbox[(w1 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(kSbox[w2 & 0xff]);
  StoreWordBE(e0 ^ rk[0], out);
  StoreWordBE(e1 ^ rk[1], out + 4);
  StoreWordBE(e2 ^ rk[2], out + 8);
  StoreWordBE(e3 ^ rk[3], out + 12);
}

void Aes::DecryptBlock(const uint8_t in[kBlockSize],
                       uint8_t out[kBlockSize]) const {
  const uint32_t* rk = dec_keys_.data();
  uint32_t w0 = LoadWordBE(in) ^ rk[0];
  uint32_t w1 = LoadWordBE(in + 4) ^ rk[1];
  uint32_t w2 = LoadWordBE(in + 8) ^ rk[2];
  uint32_t w3 = LoadWordBE(in + 12) ^ rk[3];
  rk += 4;
  for (int round = 1; round < rounds_; ++round, rk += 4) {
    const uint32_t e0 = Td0(w0 >> 24) ^ Td1((w3 >> 16) & 0xff) ^
                        Td2((w2 >> 8) & 0xff) ^ Td3(w1 & 0xff) ^ rk[0];
    const uint32_t e1 = Td0(w1 >> 24) ^ Td1((w0 >> 16) & 0xff) ^
                        Td2((w3 >> 8) & 0xff) ^ Td3(w2 & 0xff) ^ rk[1];
    const uint32_t e2 = Td0(w2 >> 24) ^ Td1((w1 >> 16) & 0xff) ^
                        Td2((w0 >> 8) & 0xff) ^ Td3(w3 & 0xff) ^ rk[2];
    const uint32_t e3 = Td0(w3 >> 24) ^ Td1((w2 >> 16) & 0xff) ^
                        Td2((w1 >> 8) & 0xff) ^ Td3(w0 & 0xff) ^ rk[3];
    w0 = e0;
    w1 = e1;
    w2 = e2;
    w3 = e3;
  }
  // Final round: InvSubBytes + InvShiftRows + AddRoundKey.
  const uint32_t e0 =
      (static_cast<uint32_t>(kInvSbox[w0 >> 24]) << 24) |
      (static_cast<uint32_t>(kInvSbox[(w3 >> 16) & 0xff]) << 16) |
      (static_cast<uint32_t>(kInvSbox[(w2 >> 8) & 0xff]) << 8) |
      static_cast<uint32_t>(kInvSbox[w1 & 0xff]);
  const uint32_t e1 =
      (static_cast<uint32_t>(kInvSbox[w1 >> 24]) << 24) |
      (static_cast<uint32_t>(kInvSbox[(w0 >> 16) & 0xff]) << 16) |
      (static_cast<uint32_t>(kInvSbox[(w3 >> 8) & 0xff]) << 8) |
      static_cast<uint32_t>(kInvSbox[w2 & 0xff]);
  const uint32_t e2 =
      (static_cast<uint32_t>(kInvSbox[w2 >> 24]) << 24) |
      (static_cast<uint32_t>(kInvSbox[(w1 >> 16) & 0xff]) << 16) |
      (static_cast<uint32_t>(kInvSbox[(w0 >> 8) & 0xff]) << 8) |
      static_cast<uint32_t>(kInvSbox[w3 & 0xff]);
  const uint32_t e3 =
      (static_cast<uint32_t>(kInvSbox[w3 >> 24]) << 24) |
      (static_cast<uint32_t>(kInvSbox[(w2 >> 16) & 0xff]) << 16) |
      (static_cast<uint32_t>(kInvSbox[(w1 >> 8) & 0xff]) << 8) |
      static_cast<uint32_t>(kInvSbox[w0 & 0xff]);
  StoreWordBE(e0 ^ rk[0], out);
  StoreWordBE(e1 ^ rk[1], out + 4);
  StoreWordBE(e2 ^ rk[2], out + 8);
  StoreWordBE(e3 ^ rk[3], out + 12);
}

}  // namespace shpir::crypto
