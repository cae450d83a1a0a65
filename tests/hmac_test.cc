#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include <string>

#include "common/bytes.h"

namespace shpir::crypto {
namespace {

std::string TagHex(const Bytes& key, const Bytes& data) {
  HmacSha256 mac(key);
  const HmacSha256::Tag tag = mac.Compute(data);
  return HexEncode(ByteSpan(tag.data(), tag.size()));
}

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string msg = "Hi There";
  const Bytes data(msg.begin(), msg.end());
  EXPECT_EQ(TagHex(key, data),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacTest, Rfc4231Case2) {
  const std::string key_str = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const Bytes key(key_str.begin(), key_str.end());
  const Bytes data(msg.begin(), msg.end());
  EXPECT_EQ(TagHex(key, data),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3 (0xaa key, 0xdd data).
TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(TagHex(key, data),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key larger than block size.
TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Bytes data(msg.begin(), msg.end());
  EXPECT_EQ(TagHex(key, data),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, VerifyAcceptsCorrectTag) {
  const Bytes key(32, 0x01);
  const Bytes data = {1, 2, 3, 4};
  HmacSha256 mac(key);
  const HmacSha256::Tag tag = mac.Compute(data);
  EXPECT_TRUE(mac.Verify(data, ByteSpan(tag.data(), tag.size())));
}

TEST(HmacTest, VerifyRejectsTamperedData) {
  const Bytes key(32, 0x01);
  Bytes data = {1, 2, 3, 4};
  HmacSha256 mac(key);
  const HmacSha256::Tag tag = mac.Compute(data);
  data[0] ^= 1;
  EXPECT_FALSE(mac.Verify(data, ByteSpan(tag.data(), tag.size())));
}

TEST(HmacTest, VerifyRejectsTamperedTag) {
  const Bytes key(32, 0x01);
  const Bytes data = {1, 2, 3, 4};
  HmacSha256 mac(key);
  HmacSha256::Tag tag = mac.Compute(data);
  tag[31] ^= 0x80;
  EXPECT_FALSE(mac.Verify(data, ByteSpan(tag.data(), tag.size())));
}

TEST(HmacTest, VerifyRejectsTruncatedTag) {
  const Bytes key(32, 0x01);
  const Bytes data = {1, 2, 3, 4};
  HmacSha256 mac(key);
  const HmacSha256::Tag tag = mac.Compute(data);
  EXPECT_FALSE(mac.Verify(data, ByteSpan(tag.data(), tag.size() - 1)));
}

TEST(HmacTest, DifferentKeysGiveDifferentTags) {
  const Bytes data = {9, 9, 9};
  EXPECT_NE(TagHex(Bytes(16, 0x01), data), TagHex(Bytes(16, 0x02), data));
}

}  // namespace
}  // namespace shpir::crypto
