#include "storage/page_cipher.h"

#include <algorithm>
#include <cstring>

namespace shpir::storage {

Result<PageCipher> PageCipher::Create(ByteSpan key, size_t page_size) {
  if (page_size == 0) {
    return InvalidArgumentError("page size must be positive");
  }
  if (page_size > crypto::AesGcm::kMaxTextSize - PageCodec::kHeaderSize) {
    return InvalidArgumentError(
        "page size exceeds AES-GCM's plaintext limit of 2^39 - 256 bits");
  }
  SHPIR_ASSIGN_OR_RETURN(crypto::AesGcm gcm, crypto::AesGcm::Create(key));
  return PageCipher(std::move(gcm), page_size);
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
  for (size_t i = 0; i < sealed.size(); ++i) {
    SHPIR_RETURN_IF_ERROR(Decrypt(sealed[i], out[i]));
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
  return gcm_.Seal(nonce, body, slot.last(kTagSize));
}

Status PageCipher::Decrypt(ByteSpan slot, Page& page) const {
  const ByteSpan nonce = slot.first(kNonceSize);
  const ByteSpan body = slot.subspan(kNonceSize, codec_.serialized_size());
  if (!gcm_.Verify(nonce, body, slot.last(kTagSize))) {
    return DataLossError("page tag verification failed");
  }
  // The body is the serialized page: its 8-byte id, then the payload
  // (PageCodec). The id and the payload's first bytes share the body's
  // first keystream block, so that block opens aside and the rest of the
  // payload, from block 1 on, straight into the page's own buffer.
  uint8_t head[crypto::Aes::kBlockSize];
  const size_t head_len = std::min(body.size(), sizeof(head));
  SHPIR_RETURN_IF_ERROR(gcm_.Decrypt(nonce, body.first(head_len),
                                     MutableByteSpan(head, head_len)));
  page.id = PageCodec::ReadId(ByteSpan(head, head_len));
  page.data.resize(page_size());
  const size_t head_payload = head_len - PageCodec::kHeaderSize;
  std::memcpy(page.data.data(), head + PageCodec::kHeaderSize, head_payload);
  if (body.size() > head_len) {
    SHPIR_RETURN_IF_ERROR(gcm_.Decrypt(
        nonce, body.subspan(head_len),
        MutableByteSpan(page.data).subspan(head_payload), /*block=*/1));
  }
  return OkStatus();
}

}  // namespace shpir::storage
