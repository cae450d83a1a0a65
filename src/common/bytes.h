#ifndef SHPIR_COMMON_BYTES_H_
#define SHPIR_COMMON_BYTES_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace shpir {

/// Owned byte buffer used throughout the library for page payloads,
/// ciphertexts, keys and digests.
using Bytes = std::vector<uint8_t>;

/// Non-owning views over byte ranges.
using ByteSpan = std::span<const uint8_t>;
using MutableByteSpan = std::span<uint8_t>;

/// Lexicographic order on byte strings, the same order as operator< on
/// Bytes. gcc 12 at -O2 reports a false -Wstringop-overread inside
/// std::vector<uint8_t>'s operator< (its memcmp over the shorter
/// length), which -Werror turns into a build failure, so ordered
/// containers and sorts of byte strings use this instead.
struct BytesLess {
  bool operator()(ByteSpan a, ByteSpan b) const {
    const size_t common = std::min(a.size(), b.size());
    const int order = common == 0 ? 0 : std::memcmp(a.data(), b.data(), common);
    return order < 0 || (order == 0 && a.size() < b.size());
  }
};

/// Views text (a JSON document, say) as the bytes of a payload.
inline ByteSpan AsBytes(std::string_view text) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(text.data()),
                  text.size());
}

/// Encodes `data` as lowercase hex.
std::string HexEncode(ByteSpan data);

/// Decodes a hex string (case-insensitive). Returns an empty vector on
/// malformed input of odd length or non-hex characters.
Bytes HexDecode(const std::string& hex);

/// Little-endian load/store helpers (the library's on-disk integer format).
uint32_t LoadLE32(const uint8_t* p);
uint64_t LoadLE64(const uint8_t* p);
void StoreLE32(uint32_t v, uint8_t* p);
void StoreLE64(uint64_t v, uint8_t* p);

/// Big-endian helpers, used by SHA-256 and AES-CTR counters.
uint32_t LoadBE32(const uint8_t* p);
uint64_t LoadBE64(const uint8_t* p);
void StoreBE32(uint32_t v, uint8_t* p);
void StoreBE64(uint64_t v, uint8_t* p);

}  // namespace shpir

#endif  // SHPIR_COMMON_BYTES_H_
