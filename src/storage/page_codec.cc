#include "storage/page_codec.h"

#include <cstring>

namespace shpir::storage {

Status PageCodec::Serialize(const Page& page, MutableByteSpan out) const {
  if (out.size() != serialized_size()) {
    return InvalidArgumentError("serialize buffer has wrong size");
  }
  if (page.data.size() > page_size_) {
    return InvalidArgumentError("page payload exceeds page size");
  }
  StoreLE64(page.id, out.data());
  std::memcpy(out.data() + kHeaderSize, page.data.data(), page.data.size());
  if (page.data.size() < page_size_) {
    std::memset(out.data() + kHeaderSize + page.data.size(), 0,
                page_size_ - page.data.size());
  }
  return OkStatus();
}

Result<Page> PageCodec::Deserialize(Bytes in) const {
  if (in.size() != serialized_size()) {
    return InvalidArgumentError("serialized page has wrong size");
  }
  Page page;
  page.id = ReadId(in);
  in.erase(in.begin(), in.begin() + kHeaderSize);
  page.data = std::move(in);
  return page;
}

}  // namespace shpir::storage
