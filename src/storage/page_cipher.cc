#include "storage/page_cipher.h"

#include <cstring>

namespace shpir::storage {

Result<PageCipher> PageCipher::Create(ByteSpan enc_key, ByteSpan mac_key,
                                      size_t page_size) {
  if (page_size == 0) {
    return InvalidArgumentError("page size must be positive");
  }
  SHPIR_ASSIGN_OR_RETURN(crypto::AesCtr ctr, crypto::AesCtr::Create(enc_key));
  crypto::HmacSha256 mac(mac_key);
  return PageCipher(std::move(ctr), std::move(mac), page_size);
}

Result<Bytes> PageCipher::Seal(const Page& page,
                               crypto::SecureRandom& rng) const {
  Bytes out(sealed_size());
  MutableByteSpan nonce(out.data(), kNonceSize);
  MutableByteSpan body(out.data() + kNonceSize, codec_.serialized_size());
  rng.Fill(nonce);
  SHPIR_RETURN_IF_ERROR(codec_.Serialize(page, body));
  SHPIR_RETURN_IF_ERROR(ctr_.CryptWithNonce(nonce, body, body));
  const crypto::HmacSha256::Tag tag =
      mac_.Compute(ByteSpan(out.data(), kNonceSize + body.size()));
  std::memcpy(out.data() + kNonceSize + body.size(), tag.data(), kTagSize);
  return out;
}

Result<Page> PageCipher::Open(ByteSpan sealed) const {
  if (sealed.size() != sealed_size()) {
    return InvalidArgumentError("sealed page has wrong size");
  }
  const size_t body_len = codec_.serialized_size();
  const ByteSpan authed(sealed.data(), kNonceSize + body_len);
  const ByteSpan tag(sealed.data() + kNonceSize + body_len, kTagSize);
  if (!mac_.Verify(authed, tag)) {
    return DataLossError("page MAC verification failed");
  }
  const ByteSpan nonce(sealed.data(), kNonceSize);
  Bytes body(body_len);
  SHPIR_RETURN_IF_ERROR(ctr_.CryptWithNonce(
      nonce, ByteSpan(sealed.data() + kNonceSize, body_len), body));
  return codec_.Deserialize(std::move(body));
}

}  // namespace shpir::storage
