// Both forms of each crypto kernel (crypto/kernels.h), called directly:
// the portable one always runs; the hardware one skips with a message
// where CPUID lacks the feature. Each form must reproduce the published
// vectors, and the hardware forms must match the portable ones byte for
// byte on random inputs.

#include "crypto/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/secure_random.h"
#include "crypto/sha256.h"

namespace shpir::crypto {
namespace {

enum class Form { kPortable, kHardware };

// Names the form in test names and in the printed parameter.
void PrintTo(Form form, std::ostream* os) {
  *os << (form == Form::kPortable ? "Portable" : "Hardware");
}

std::string FormName(const ::testing::TestParamInfo<Form>& info) {
  return ::testing::PrintToString(info.param);
}

// AES-CTR over `in` with the kernel of `form`; `in_place` runs it with
// out == in.
Bytes CtrWith(Form form, const Bytes& key, const Bytes& iv, const Bytes& in,
              bool in_place = false) {
  Bytes out = in_place ? in : Bytes(in.size());
  const uint8_t* src = in_place ? out.data() : in.data();
  if (form == Form::kPortable) {
    const Result<Aes> aes = Aes::Create(key);
    EXPECT_TRUE(aes.ok());
    kernels::AesCtrPortable(*aes, iv.data(), src, out.data(), in.size());
  } else {
    uint8_t schedule[kernels::kMaxAesScheduleBytes];
    const int rounds = kernels::ExpandAesKey(key, schedule);
    kernels::AesCtrHardware(schedule, rounds, iv.data(), src, out.data(),
                            in.size());
  }
  return out;
}

// The 128-bit big-endian counter block `iv` + `n`.
Bytes AddToCounter(const Bytes& iv, uint64_t n) {
  Bytes block = iv;
  unsigned carry_in = 0;
  for (int i = 15; i >= 0; --i) {
    const unsigned sum = block[i] + static_cast<unsigned>(n & 0xff) + carry_in;
    block[i] = static_cast<uint8_t>(sum);
    carry_in = sum >> 8;
    n >>= 8;
  }
  return block;
}

class CtrKernelTest : public ::testing::TestWithParam<Form> {
 protected:
  void SetUp() override {
    if (GetParam() == Form::kHardware && !kernels::HasAesNi()) {
      GTEST_SKIP() << "CPUID reports no AES-NI: the hardware CTR kernel "
                      "is not exercised on this CPU";
    }
  }
};

// FIPS 197 Appendix C: with a zero input, the first keystream block is
// the block cipher applied to the IV.
TEST_P(CtrKernelTest, Fips197Vectors) {
  const Bytes pt = HexDecode("00112233445566778899aabbccddeeff");
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"000102030405060708090a0b0c0d0e0f",
       "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const auto& [key, ct] : vectors) {
    EXPECT_EQ(HexEncode(CtrWith(GetParam(), HexDecode(key), pt, Bytes(16))),
              ct)
        << "key " << key;
  }
}

// NIST SP 800-38A F.5.1, F.5.3 and F.5.5: CTR-AES128/192/256.Encrypt,
// all four blocks, out of place and in place.
TEST_P(CtrKernelTest, Sp80038aVectors) {
  const Bytes iv = HexDecode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = HexDecode(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"2b7e151628aed2a6abf7158809cf4f3c",
       "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
       "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"},
      {"8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
       "1abc932417521ca24f2b0459fe7e6e0b090339ec0aa6faefd5ccc2c6f4ce8e94"
       "1e36b26bd1ebc670d1bd1d665620abf74f78a7f6d29809585a97daec58c6b050"},
      {"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
       "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
       "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6"},
  };
  for (const auto& [key, ct] : vectors) {
    EXPECT_EQ(HexEncode(CtrWith(GetParam(), HexDecode(key), iv, pt)), ct)
        << "key " << key;
    EXPECT_EQ(HexEncode(CtrWith(GetParam(), HexDecode(key), iv, pt,
                                /*in_place=*/true)),
              ct)
        << "in place, key " << key;
  }
}

// Keystream block j is AES(iv + j) with the counter carried across all
// 128 bits, including from the low 64 bits into the high 64 and from
// all-ones round to zero.
TEST_P(CtrKernelTest, CounterCarriesAcross128Bits) {
  const std::vector<std::string> ivs = {
      "000102030405060708090a0bfffffffd",
      "0001020304050607fffffffffffffffd",
      "ffffffffffffffffffffffffffffffff",
  };
  SecureRandom rng(11);
  for (const size_t key_size : {16u, 24u, 32u}) {
    Bytes key(key_size);
    rng.Fill(key);
    const Result<Aes> aes = Aes::Create(key);
    ASSERT_TRUE(aes.ok());
    for (const std::string& iv_hex : ivs) {
      const Bytes iv = HexDecode(iv_hex);
      constexpr size_t kBlocks = 20;
      const Bytes keystream =
          CtrWith(GetParam(), key, iv, Bytes(kBlocks * Aes::kBlockSize));
      for (size_t j = 0; j < kBlocks; ++j) {
        const Bytes counter = AddToCounter(iv, j);
        uint8_t expected[Aes::kBlockSize];
        aes->EncryptBlock(counter.data(), expected);
        EXPECT_EQ(HexEncode(ByteSpan(keystream.data() + 16 * j, 16)),
                  HexEncode(ByteSpan(expected, 16)))
            << "key " << key_size << " bytes, iv " << iv_hex << ", block "
            << j;
      }
    }
  }
}

// Past its eight-block strides, the hardware kernel runs the tail in
// narrower groups and one partial block; the counter must carry across
// all 128 bits there too. Sixteen blocks fill two strides and block 18
// carries, so each length below puts the carry in a different piece of
// the tail: the partial block (40), the single block (56), the group of
// four (72) and a tail of every piece (127).
TEST_P(CtrKernelTest, CounterCarriesInsideTheFinalPartialStride) {
  const std::vector<std::string> ivs = {
      "0001020304050607ffffffffffffffee",
      "ffffffffffffffffffffffffffffffee",
  };
  SecureRandom rng(13);
  Bytes key(32);
  rng.Fill(key);
  const Result<Aes> aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  for (const std::string& iv_hex : ivs) {
    const Bytes iv = HexDecode(iv_hex);
    for (const size_t tail : {40u, 56u, 72u, 127u}) {
      const size_t len = 16 * Aes::kBlockSize + tail;
      const Bytes keystream = CtrWith(GetParam(), key, iv, Bytes(len));
      for (size_t j = 0; j * Aes::kBlockSize < len; ++j) {
        const Bytes counter = AddToCounter(iv, j);
        uint8_t expected[Aes::kBlockSize];
        aes->EncryptBlock(counter.data(), expected);
        const size_t n = std::min(Aes::kBlockSize, len - j * Aes::kBlockSize);
        EXPECT_EQ(HexEncode(ByteSpan(keystream.data() + 16 * j, n)),
                  HexEncode(ByteSpan(expected, n)))
            << "iv " << iv_hex << ", length " << len << ", block " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, CtrKernelTest,
                         ::testing::Values(Form::kPortable, Form::kHardware),
                         FormName);

TEST(CtrKernelParityTest, HardwareMatchesPortable) {
  if (!kernels::HasAesNi()) {
    GTEST_SKIP() << "CPUID reports no AES-NI: nothing to compare with the "
                    "portable CTR kernel on this CPU";
  }
  SecureRandom rng(12);
  const Bytes wrap_low = HexDecode("0123456789abcdeffffffffffffffffd");
  const Bytes all_ones(16, 0xff);
  for (const size_t key_size : {16u, 24u, 32u}) {
    Bytes key(key_size);
    rng.Fill(key);
    for (size_t len = 0; len <= 600; ++len) {
      Bytes in(len);
      rng.Fill(in);
      Bytes random_iv(16);
      rng.Fill(random_iv);
      for (const Bytes& iv : {random_iv, wrap_low, all_ones}) {
        const Bytes expected = CtrWith(Form::kPortable, key, iv, in);
        ASSERT_EQ(CtrWith(Form::kHardware, key, iv, in), expected)
            << "key " << key_size << " bytes, length " << len << ", iv "
            << HexEncode(iv);
        ASSERT_EQ(CtrWith(Form::kHardware, key, iv, in, /*in_place=*/true),
                  expected)
            << "in place, key " << key_size << " bytes, length " << len;
      }
    }
  }
}

// SHA-256 of `message` from the compression kernel of `form`, with the
// FIPS 180-4 padding done here, so each kernel is checked on its own.
std::string DigestWith(Form form, ByteSpan message) {
  std::array<uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                   0xa54ff53a, 0x510e527f, 0x9b05688c,
                                   0x1f83d9ab, 0x5be0cd19};
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockSize != 56) {
    padded.push_back(0);
  }
  uint8_t length[8];
  StoreBE64(static_cast<uint64_t>(message.size()) * 8, length);
  padded.insert(padded.end(), length, length + 8);
  const size_t blocks = padded.size() / Sha256::kBlockSize;
  if (form == Form::kPortable) {
    kernels::Sha256BlocksPortable(state.data(), padded.data(), blocks);
  } else {
    kernels::Sha256BlocksHardware(state.data(), padded.data(), blocks);
  }
  uint8_t digest[Sha256::kDigestSize];
  for (int i = 0; i < 8; ++i) {
    StoreBE32(state[i], digest + 4 * i);
  }
  return HexEncode(ByteSpan(digest, sizeof(digest)));
}

class Sha256KernelTest : public ::testing::TestWithParam<Form> {
 protected:
  void SetUp() override {
    if (GetParam() == Form::kHardware && !kernels::HasShaNi()) {
      GTEST_SKIP() << "CPUID reports no SHA-NI: the hardware SHA-256 "
                      "kernel is not exercised on this CPU";
    }
  }
};

// The FIPS 180-4 vectors of sha256_test.cc, one-block and multi-block.
TEST_P(Sha256KernelTest, Fips180Vectors) {
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(55, 'a'),
       "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {std::string(56, 'a'),
       "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {std::string(64, 'a'),
       "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [message, digest] : vectors) {
    EXPECT_EQ(DigestWith(GetParam(), AsBytes(message)), digest)
        << message.size() << "-byte message";
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256KernelTest,
                         ::testing::Values(Form::kPortable, Form::kHardware),
                         FormName);

// Sha256 with its compression dispatched (SHA-NI where present) and its
// input split at random points must agree with the portable kernel.
TEST(Sha256KernelParityTest, DispatchedWithRandomSplitsMatchesPortable) {
  SecureRandom rng(13);
  for (size_t len = 0; len <= 1100; ++len) {
    Bytes message(len);
    rng.Fill(message);
    Sha256 hasher;
    size_t offset = 0;
    while (offset < len) {
      const size_t take =
          1 + rng.UniformInt(std::min<uint64_t>(len - offset, 200));
      hasher.Update(ByteSpan(message.data() + offset, take));
      offset += take;
    }
    const Sha256::Digest digest = hasher.Finalize();
    ASSERT_EQ(HexEncode(ByteSpan(digest.data(), digest.size())),
              DigestWith(Form::kPortable, message))
        << "length " << len;
  }
}

// HmacSha256, which hashes its pad blocks once and resumes from the
// saved states, against RFC 2104 computed from the portable kernel, for
// keys shorter than, equal to and longer than the 64-byte block.
TEST(HmacKernelParityTest, MidstatesMatchRfc2104) {
  SecureRandom rng(14);
  for (const size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 131u, 200u}) {
    Bytes key(key_len);
    rng.Fill(key);
    Bytes block_key(Sha256::kBlockSize, 0);
    if (key_len > Sha256::kBlockSize) {
      const Bytes hashed = HexDecode(DigestWith(Form::kPortable, key));
      std::copy(hashed.begin(), hashed.end(), block_key.begin());
    } else {
      std::copy(key.begin(), key.end(), block_key.begin());
    }
    const HmacSha256 mac(key);
    for (const size_t data_len : {0u, 1u, 55u, 64u, 200u, 1044u}) {
      Bytes data(data_len);
      rng.Fill(data);
      Bytes inner(block_key);
      for (uint8_t& b : inner) {
        b ^= 0x36;
      }
      inner.insert(inner.end(), data.begin(), data.end());
      Bytes outer(block_key);
      for (uint8_t& b : outer) {
        b ^= 0x5c;
      }
      const Bytes inner_digest = HexDecode(DigestWith(Form::kPortable, inner));
      outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
      const HmacSha256::Tag tag = mac.Compute(data);
      EXPECT_EQ(HexEncode(ByteSpan(tag.data(), tag.size())),
                DigestWith(Form::kPortable, outer))
          << "key " << key_len << " bytes, data " << data_len << " bytes";
    }
  }
}

// The GHASH kernel of `form`, keyed by the subkey `h`, over `data` from
// the running value `y`.
Bytes GhashWith(Form form, const Bytes& h, Bytes y, ByteSpan data) {
  uint8_t key[kernels::kGhashKeyBytes];
  kernels::ExpandGhashKey(h.data(), key);
  if (form == Form::kPortable) {
    kernels::GhashPortable(key, y.data(), data.data(), data.size());
  } else {
    kernels::GhashHardware(key, y.data(), data.data(), data.size());
  }
  return y;
}

class GhashKernelTest : public ::testing::TestWithParam<Form> {
 protected:
  void SetUp() override {
    if (GetParam() == Form::kHardware && !kernels::HasPclmul()) {
      GTEST_SKIP() << "CPUID reports no PCLMULQDQ: the hardware GHASH "
                      "kernel is not exercised on this CPU";
    }
  }
};

// GHASH(H, {}, C) from the GCM specification's test cases 2 and 3
// (AES-128: one block, and four blocks, half a hardware stride) and 14
// (AES-256, one block): C, then the length block 0^64 || [len(C)]_64.
TEST_P(GhashKernelTest, GcmSpecVectors) {
  struct Vector {
    std::string h;
    std::string c;
    std::string ghash;
  };
  const std::vector<Vector> vectors = {
      {"66e94bd4ef8a2c3b884cfa59ca342b2e", "0388dace60b6a392f328c2b971b2fe78",
       "f38cbb1ad69223dcc3457ae5b6b0f885"},
      {"b83b533708bf535d0aa6e52980d53b78",
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
       "7f1b32b81b820d02614f8895ac1d4eac"},
      {"dc95c078a2408989ad48a21492842087", "cea7403d4d606b6e074ec5d3baf39d18",
       "83de425c5edc5d498f382c441041ca92"},
  };
  for (const Vector& v : vectors) {
    const Bytes h = HexDecode(v.h);
    const Bytes c = HexDecode(v.c);
    Bytes lengths(16, 0);
    StoreBE64(static_cast<uint64_t>(c.size()) * 8, lengths.data() + 8);
    const Bytes y = GhashWith(GetParam(), h, Bytes(16, 0), c);
    EXPECT_EQ(HexEncode(GhashWith(GetParam(), h, y, lengths)), v.ghash)
        << "H " << v.h;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, GhashKernelTest,
                         ::testing::Values(Form::kPortable, Form::kHardware),
                         FormName);

// The PCLMULQDQ kernel against the portable one for random subkeys and
// running values over every length up to 1,100 bytes: whole strides,
// every tail of one to eight blocks, and a partial last block.
TEST(GhashKernelParityTest, HardwareMatchesPortable) {
  if (!kernels::HasPclmul()) {
    GTEST_SKIP() << "CPUID reports no PCLMULQDQ: nothing to compare with "
                    "the portable GHASH kernel on this CPU";
  }
  SecureRandom rng(18);
  for (size_t len = 0; len <= 1100; ++len) {
    Bytes h(16);
    Bytes y(16);
    Bytes data(len);
    rng.Fill(h);
    rng.Fill(y);
    rng.Fill(data);
    ASSERT_EQ(HexEncode(GhashWith(Form::kHardware, h, y, data)),
              HexEncode(GhashWith(Form::kPortable, h, y, data)))
        << "length " << len << ", H " << HexEncode(h);
  }
}

}  // namespace
}  // namespace shpir::crypto
