#ifndef SHPIR_COMMON_BYTES_H_
#define SHPIR_COMMON_BYTES_H_

#include <cstdint>
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
