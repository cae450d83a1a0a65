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

std::array<HmacSha256::Tag, 2> HmacSha256::ComputePair(ByteSpan a,
                                                       ByteSpan b) const {
  Sha256 inner_a = ipad_state_;
  Sha256 inner_b = ipad_state_;
  // The pair forms compare the two states' absorbed byte counts, public
  // message lengths, to decide whether the lanes line up; the midstate
  // words they also carry never reach a comparison.
  // shpir-lint-allow-next-line(secret-arg): compares only the public byte counts the two midstate copies have absorbed
  Sha256::UpdatePair(inner_a, a, inner_b, b);
  const std::array<Sha256::Digest, 2> inner =
      // shpir-lint-allow-next-line(secret-arg): compares only the public byte counts the two midstate copies have absorbed
      Sha256::FinalizePair(inner_a, inner_b);
  Sha256 outer_a = opad_state_;
  Sha256 outer_b = opad_state_;
  // shpir-lint-allow-next-line(secret-arg): compares only the public byte counts the two midstate copies have absorbed
  Sha256::UpdatePair(outer_a, inner[0], outer_b, inner[1]);
  // shpir-lint-allow-next-line(secret-arg, secret-return): compares only the public byte counts the two midstate copies have absorbed; the tags are public by design, like Compute's
  return Sha256::FinalizePair(outer_a, outer_b);
}

bool HmacSha256::Verify(ByteSpan data, ByteSpan tag) const {
  const Tag expected = Compute(data);
  return ConstantTimeEquals(ByteSpan(expected.data(), expected.size()), tag);
}

}  // namespace shpir::crypto
