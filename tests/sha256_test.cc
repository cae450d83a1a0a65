#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "common/bytes.h"

namespace shpir::crypto {
namespace {

std::string HashHex(const std::string& input) {
  const Sha256::Digest d =
      Sha256::Hash(ByteSpan(reinterpret_cast<const uint8_t*>(input.data()),
                            input.size()));
  return HexEncode(ByteSpan(d.data(), d.size()));
}

struct ShaVector {
  std::string name;
  std::string input;
  std::string digest_hex;
};

// gtest prints an unprintable parameter as its raw bytes, which hold heap
// and image addresses; that text becomes part of the discovered ctest name,
// so the name would change with every build. Print the vector's name.
void PrintTo(const ShaVector& v, std::ostream* os) { *os << v.name; }

class Sha256KnownAnswerTest : public ::testing::TestWithParam<ShaVector> {};

TEST_P(Sha256KnownAnswerTest, Digest) {
  EXPECT_EQ(HashHex(GetParam().input), GetParam().digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha256KnownAnswerTest,
    ::testing::Values(
        ShaVector{"Empty", "",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b78"
                  "52b855"},
        ShaVector{"Abc", "abc",
                  "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f2"
                  "0015ad"},
        ShaVector{"TwoBlocks",
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                  "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419"
                  "db06c1"},
        ShaVector{"Exactly55Bytes",
                  std::string(55, 'a'),
                  "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f"
                  "734318"},
        ShaVector{"Exactly56Bytes",
                  std::string(56, 'a'),
                  "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686e"
                  "c6738a"},
        ShaVector{"Exactly64Bytes",
                  std::string(64, 'a'),
                  "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df15"
                  "4668eb"}),
    [](const ::testing::TestParamInfo<ShaVector>& info) {
      return info.param.name;
    });

TEST(Sha256Test, MillionAs) {
  // FIPS 180-4 long-message vector.
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(ByteSpan(reinterpret_cast<const uint8_t*>(chunk.data()),
                      chunk.size()));
  }
  const Sha256::Digest d = h.Finalize();
  EXPECT_EQ(HexEncode(ByteSpan(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string input =
      "the quick brown fox jumps over the lazy dog and keeps running";
  // Split the input at every possible position; digests must agree.
  for (size_t split = 0; split <= input.size(); ++split) {
    Sha256 h;
    h.Update(ByteSpan(reinterpret_cast<const uint8_t*>(input.data()), split));
    h.Update(ByteSpan(reinterpret_cast<const uint8_t*>(input.data()) + split,
                      input.size() - split));
    const Sha256::Digest d = h.Finalize();
    EXPECT_EQ(HexEncode(ByteSpan(d.data(), d.size())), HashHex(input))
        << "split at " << split;
  }
}

TEST(Sha256Test, ResetRestoresInitialState) {
  Sha256 h;
  h.Update(ByteSpan(reinterpret_cast<const uint8_t*>("junk"), 4));
  h.Reset();
  h.Update(ByteSpan(reinterpret_cast<const uint8_t*>("abc"), 3));
  const Sha256::Digest d = h.Finalize();
  EXPECT_EQ(HexEncode(ByteSpan(d.data(), d.size())), HashHex("abc"));
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(HashHex("abc"), HashHex("abd"));
  EXPECT_NE(HashHex(""), HashHex(std::string(1, '\0')));
}

}  // namespace
}  // namespace shpir::crypto
