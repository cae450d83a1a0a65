#ifndef SHPIR_STORAGE_PAGE_CODEC_H_
#define SHPIR_STORAGE_PAGE_CODEC_H_

#include <cstddef>

#include "common/result.h"
#include "storage/page.h"

namespace shpir::storage {

/// Fixed-size plaintext serialization of a Page: 8-byte little-endian id
/// followed by exactly `page_size` payload bytes. All pages in a database
/// share one codec so every serialized page has identical length — a
/// requirement for the oblivious layout (ciphertext length must not leak
/// which page is which).
class PageCodec {
 public:
  static constexpr size_t kHeaderSize = 8;

  /// Creates a codec for pages whose payload is `page_size` bytes.
  explicit PageCodec(size_t page_size) : page_size_(page_size) {}

  size_t page_size() const { return page_size_; }

  /// Serialized (plaintext) length: header + payload.
  size_t serialized_size() const { return kHeaderSize + page_size_; }

  /// Serializes `page` into `out` (must be serialized_size() bytes).
  /// Payloads shorter than page_size are zero-padded; longer payloads are
  /// rejected.
  Status Serialize(const Page& page, MutableByteSpan out) const;

  /// Parses a serialized page. The payload reuses `in`'s buffer and
  /// always comes back with exactly page_size bytes.
  Result<Page> Deserialize(Bytes in) const;

  /// The page id in a serialized page's first kHeaderSize bytes; the
  /// payload follows them.
  static PageId ReadId(ByteSpan header) { return LoadLE64(header.data()); }

 private:
  size_t page_size_;
};

}  // namespace shpir::storage

#endif  // SHPIR_STORAGE_PAGE_CODEC_H_
