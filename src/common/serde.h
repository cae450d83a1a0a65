#ifndef SHPIR_COMMON_SERDE_H_
#define SHPIR_COMMON_SERDE_H_

#include <cstring>
#include <string>

#include "common/bytes.h"
#include "common/result.h"

namespace shpir {

/// Append-only little-endian byte writer for state serialization.
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { out_.push_back(v); }

  void WriteU64(uint64_t v) {
    uint8_t buf[8];
    StoreLE64(v, buf);
    out_.insert(out_.end(), buf, buf + 8);
  }

  /// Appends `data` as is (callers fix lengths in their formats).
  void WriteRaw(ByteSpan data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  Bytes Take() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  Bytes out_;
};

/// Bounds-checked reader matching ByteWriter.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  // All bounds checks compare against the remaining byte count instead
  // of computing pos_ + len, which could wrap for an adversarial length
  // read out of a corrupt blob and defeat the check.

  Result<uint8_t> ReadU8() {
    if (remaining() < 1) {
      return DataLossError("truncated state: u8");
    }
    return data_[pos_++];
  }

  Result<uint64_t> ReadU64() {
    if (remaining() < 8) {
      return DataLossError("truncated state: u64");
    }
    const uint64_t v = LoadLE64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }

  /// Raw read of exactly `len` bytes.
  Result<Bytes> ReadRaw(size_t len) {
    if (len > remaining()) {
      return DataLossError("truncated state: raw");
    }
    Bytes out(data_.begin() + static_cast<ptrdiff_t>(pos_),
              data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace shpir

#endif  // SHPIR_COMMON_SERDE_H_
