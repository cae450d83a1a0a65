#include "storage/page_cipher.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "crypto/constant_time.h"

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
  Bytes out;
  SHPIR_RETURN_IF_ERROR(SealPages(std::span<const Page>(&page, 1), rng,
                                  std::span<Bytes>(&out, 1)));
  return out;
}

Result<Page> PageCipher::Open(ByteSpan sealed) const {
  Page page;
  SHPIR_RETURN_IF_ERROR(OpenSlots(std::span<const ByteSpan>(&sealed, 1),
                                  std::span<Page>(&page, 1)));
  return page;
}

Status PageCipher::SealPages(std::span<const Page> pages,
                             crypto::SecureRandom& rng,
                             std::span<Bytes> out) const {
  if (out.size() != pages.size()) {
    return InvalidArgumentError("sealing needs one slot per page");
  }
  for (size_t i = 0; i < pages.size(); ++i) {
    out[i].resize(sealed_size());
    SHPIR_RETURN_IF_ERROR(Encrypt(pages[i], rng, out[i]));
  }
  // The tags draw nothing from rng, so hashing them once every nonce is
  // drawn keeps Seal's draw order.
  const auto store_tag = [](const crypto::HmacSha256::Tag& tag, Bytes& slot) {
    std::memcpy(slot.data() + slot.size() - kTagSize, tag.data(), kTagSize);
  };
  size_t i = 0;
  for (; i + 1 < out.size(); i += 2) {
    const std::array<crypto::HmacSha256::Tag, 2> tags =
        mac_.ComputePair(Authenticated(out[i]), Authenticated(out[i + 1]));
    store_tag(tags[0], out[i]);
    store_tag(tags[1], out[i + 1]);
  }
  if (i < out.size()) {
    store_tag(mac_.Compute(Authenticated(out[i])), out[i]);
  }
  return OkStatus();
}

Status PageCipher::OpenPages(std::span<const Bytes> sealed,
                             std::span<Page> out) const {
  return OpenSlots(sealed, out);
}

template <typename Slot>
Status PageCipher::OpenSlots(std::span<const Slot> sealed,
                             std::span<Page> out) const {
  if (out.size() != sealed.size()) {
    return InvalidArgumentError("opening needs one page per slot");
  }
  for (const Slot& slot : sealed) {
    if (slot.size() != sealed_size()) {
      return InvalidArgumentError("sealed page has wrong size");
    }
  }
  size_t i = 0;
  for (; i + 1 < sealed.size(); i += 2) {
    const ByteSpan a(sealed[i]);
    const ByteSpan b(sealed[i + 1]);
    const std::array<crypto::HmacSha256::Tag, 2> tags =
        mac_.ComputePair(Authenticated(a), Authenticated(b));
    SHPIR_RETURN_IF_ERROR(Decrypt(a, tags[0], out[i]));
    SHPIR_RETURN_IF_ERROR(Decrypt(b, tags[1], out[i + 1]));
  }
  if (i < sealed.size()) {
    const ByteSpan last(sealed[i]);
    SHPIR_RETURN_IF_ERROR(
        Decrypt(last, mac_.Compute(Authenticated(last)), out[i]));
  }
  return OkStatus();
}

Status PageCipher::Encrypt(const Page& page, crypto::SecureRandom& rng,
                           MutableByteSpan slot) const {
  const MutableByteSpan nonce = slot.first(kNonceSize);
  const MutableByteSpan body =
      slot.subspan(kNonceSize, codec_.serialized_size());
  rng.Fill(nonce);
  SHPIR_RETURN_IF_ERROR(codec_.Serialize(page, body));
  return ctr_.CryptWithNonce(nonce, body, body);
}

Status PageCipher::Decrypt(ByteSpan slot,
                           const crypto::HmacSha256::Tag& expected,
                           Page& page) const {
  if (!crypto::ConstantTimeEquals(expected, slot.last(kTagSize))) {
    return DataLossError("page MAC verification failed");
  }
  const ByteSpan nonce = slot.first(kNonceSize);
  const ByteSpan body = slot.subspan(kNonceSize, codec_.serialized_size());
  // The body is the serialized page: its 8-byte id, then the payload
  // (PageCodec). The id and the payload's first bytes share keystream
  // block 0, so that block opens aside and the rest of the payload, from
  // block 1 on, straight into the page's own buffer.
  uint8_t head[crypto::Aes::kBlockSize];
  const size_t head_len = std::min(body.size(), sizeof(head));
  SHPIR_RETURN_IF_ERROR(ctr_.CryptWithNonce(nonce, body.first(head_len),
                                            MutableByteSpan(head, head_len)));
  page.id = PageCodec::ReadId(ByteSpan(head, head_len));
  page.data.resize(page_size());
  const size_t head_payload = head_len - PageCodec::kHeaderSize;
  std::memcpy(page.data.data(), head + PageCodec::kHeaderSize, head_payload);
  if (body.size() > head_len) {
    SHPIR_RETURN_IF_ERROR(ctr_.CryptWithNonce(
        nonce, body.subspan(head_len),
        MutableByteSpan(page.data).subspan(head_payload), /*block=*/1));
  }
  return OkStatus();
}

}  // namespace shpir::storage
