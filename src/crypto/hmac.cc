#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>

#include "crypto/constant_time.h"

namespace shpir::crypto {

HmacSha256::HmacSha256(ByteSpan key) {
  std::array<uint8_t, Sha256::kBlockSize> block_key = {};
  if (key.size() > Sha256::kBlockSize) {
    const Sha256::Digest digest = Sha256::Hash(key);
    std::memcpy(block_key.data(), digest.data(), digest.size());
  } else {
    // std::copy, not memcpy: an empty key may have a null data().
    std::copy(key.begin(), key.end(), block_key.begin());
  }
  std::array<uint8_t, Sha256::kBlockSize> pad;
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) {
    pad[i] = block_key[i] ^ 0x36;
  }
  ipad_state_.Update(pad);
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) {
    pad[i] = block_key[i] ^ 0x5c;
  }
  opad_state_.Update(pad);
}

HmacSha256::Tag HmacSha256::Compute(ByteSpan data) const {
  Sha256 inner = ipad_state_;
  inner.Update(data);
  const Sha256::Digest inner_digest = inner.Finalize();
  Sha256 outer = opad_state_;
  outer.Update(ByteSpan(inner_digest.data(), inner_digest.size()));
  // shpir-lint-allow-next-line(secret-return): the tag is public by design, stored and sent beside the data it authenticates; the secret midstates it is computed from stay in this object
  return outer.Finalize();
}

bool HmacSha256::Verify(ByteSpan data, ByteSpan tag) const {
  const Tag expected = Compute(data);
  return ConstantTimeEquals(ByteSpan(expected.data(), expected.size()), tag);
}

}  // namespace shpir::crypto
