#include "keyword/keyword_fuse.h"

#include <algorithm>
#include <string>
#include <utility>

#include "crypto/constant_time.h"
#include "crypto/secure_random.h"

namespace shpir::keyword {

namespace {

constexpr size_t kFuseBodySize = 8 + 8 + 4 + 8 + 4;

uint64_t AttemptSeed(uint64_t base, uint32_t attempt) {
  return base + static_cast<uint64_t>(attempt) * 0x9E3779B97F4A7C15ULL;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// The three slot positions of a digest, one per segment third. Shared
/// by the builder and the client resolver, so it must stay stable.
std::array<uint64_t, 3> Positions(const KeywordDigest& digest,
                                  uint64_t segment_len) {
  const uint64_t a = LoadLE64(digest.data());
  const uint64_t b = LoadLE64(digest.data() + 8);
  return {a % segment_len, segment_len + (b % segment_len),
          2 * segment_len + (Mix64(a ^ (b << 1)) % segment_len)};
}

}  // namespace

FuseKeywordMap::FuseKeywordMap(const Geometry& geometry,
                               uint64_t build_version)
    : geometry_(geometry), build_version_(build_version) {}

std::vector<storage::PageId> FuseKeywordMap::Probes(
    const KeywordDigest& digest) const {
  const auto positions = Positions(digest, geometry_.num_slots / 3);
  return {positions[0], positions[1], positions[2]};
}

Result<std::optional<Bytes>> FuseKeywordMap::Extract(
    const KeywordDigest& digest,
    const std::vector<Bytes>& fetched_pages) const {
  if (fetched_pages.size() != 3) {
    return InvalidArgumentError("fuse extract: wrong page count");
  }
  const size_t record = slot_bytes();
  Bytes combined(record, 0);
  for (const Bytes& page : fetched_pages) {
    if (page.size() < record) {
      return DataLossError("fuse extract: page smaller than a slot");
    }
    for (size_t i = 0; i < record; ++i) {
      combined[i] ^= page[i];
    }
  }
  // A present key reconstructs digest | len | value; an absent one
  // reconstructs (at least one slot's worth of) uniform random bytes,
  // so the digest check fails except with probability 2^-128.
  if (!crypto::ConstantTimeEquals(ByteSpan(combined.data(), digest.size()),
                                  ByteSpan(digest.data(), digest.size()))) {
    return std::optional<Bytes>();
  }
  const size_t value_len =
      combined[16] | (static_cast<size_t>(combined[17]) << 8);
  if (value_len > geometry_.value_size) {
    return DataLossError("fuse extract: corrupt value length");
  }
  return std::optional<Bytes>(Bytes(
      combined.begin() + static_cast<ptrdiff_t>(kEntryOverhead),
      combined.begin() + static_cast<ptrdiff_t>(kEntryOverhead + value_len)));
}

Bytes FuseKeywordMap::Serialize() const {
  Bytes manifest = MakeManifestHeader(Kind::kFuse, build_version_);
  const size_t base = manifest.size();
  manifest.resize(base + kFuseBodySize);
  StoreLE64(geometry_.seed, manifest.data() + base);
  StoreLE64(geometry_.num_slots, manifest.data() + base + 8);
  StoreLE32(geometry_.value_size, manifest.data() + base + 16);
  StoreLE64(geometry_.num_keys, manifest.data() + base + 20);
  StoreLE32(geometry_.page_size, manifest.data() + base + 28);
  return manifest;
}

Result<std::unique_ptr<KeywordMap>> FuseKeywordMap::FromManifestBody(
    uint64_t build_version, ByteSpan body) {
  if (body.size() != kFuseBodySize) {
    return DataLossError("truncated fuse keyword manifest body");
  }
  Geometry geometry;
  geometry.seed = LoadLE64(body.data());
  geometry.num_slots = LoadLE64(body.data() + 8);
  geometry.value_size = LoadLE32(body.data() + 16);
  geometry.num_keys = LoadLE64(body.data() + 20);
  geometry.page_size = LoadLE32(body.data() + 28);
  if (geometry.num_slots < 3 || geometry.num_slots % 3 != 0) {
    return InvalidArgumentError(
        "fuse keyword manifest: slot count not a positive multiple of 3");
  }
  if (geometry.page_size < kEntryOverhead + geometry.value_size) {
    return InvalidArgumentError("fuse keyword manifest: page too small");
  }
  return std::unique_ptr<KeywordMap>(
      std::make_unique<FuseKeywordMap>(geometry, build_version));
}

Result<BuiltKeywordStore> BuildFuseStore(const std::vector<KeyValue>& entries,
                                         const FuseOptions& options,
                                         FuseBuildStats* stats) {
  const size_t record = kEntryOverhead + options.value_size;
  if (options.page_size < record) {
    return InvalidArgumentError("fuse build: page_size too small");
  }
  if (entries.empty()) {
    return InvalidArgumentError("fuse build: no entries");
  }
  for (const KeyValue& entry : entries) {
    if (entry.value.size() > options.value_size) {
      return InvalidArgumentError(
          "fuse build: value of " + std::to_string(entry.value.size()) +
          " bytes exceeds value_size " + std::to_string(options.value_size));
    }
  }
  {
    std::vector<const KeyValue*> sorted;
    sorted.reserve(entries.size());
    for (const KeyValue& entry : entries) {
      sorted.push_back(&entry);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const KeyValue* a, const KeyValue* b) {
                return BytesLess()(a->key, b->key);
              });
    for (size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i]->key == sorted[i - 1]->key) {
        return AlreadyExistsError("fuse build: duplicate key");
      }
    }
  }
  // Classic XOR-filter sizing: 1.23x + slack, split into three equal
  // segments (the slack dominates for small key counts).
  const uint64_t m = entries.size();
  const uint64_t segment_len =
      (static_cast<uint64_t>(1.23 * static_cast<double>(m)) + 24 + 2) / 3 + 1;
  const uint64_t num_slots = 3 * segment_len;

  FuseBuildStats local_stats;
  for (uint32_t attempt = 0; attempt < options.max_build_attempts;
       ++attempt) {
    local_stats.attempts = attempt + 1;
    const uint64_t attempt_seed = AttemptSeed(options.seed, attempt);
    std::vector<KeywordDigest> digests(m);
    for (uint64_t i = 0; i < m; ++i) {
      digests[i] = DigestKey(entries[i].key, attempt_seed);
    }
    // Peel: track per-slot key counts and the XOR of incident key
    // indices; slots of degree 1 reveal their key, removing it may
    // expose more degree-1 slots.
    std::vector<uint32_t> degree(num_slots, 0);
    std::vector<uint64_t> incident_xor(num_slots, 0);
    for (uint64_t i = 0; i < m; ++i) {
      for (const uint64_t p : Positions(digests[i], segment_len)) {
        ++degree[p];
        incident_xor[p] ^= i;
      }
    }
    std::vector<uint64_t> queue;
    for (uint64_t s = 0; s < num_slots; ++s) {
      if (degree[s] == 1) {
        queue.push_back(s);
      }
    }
    // Peel order: (key, free slot) pairs; assignment replays them LIFO.
    std::vector<std::pair<uint64_t, uint64_t>> order;
    order.reserve(m);
    while (!queue.empty()) {
      const uint64_t slot = queue.back();
      queue.pop_back();
      if (degree[slot] != 1) {
        continue;
      }
      const uint64_t key_index = incident_xor[slot];
      order.emplace_back(key_index, slot);
      for (const uint64_t p : Positions(digests[key_index], segment_len)) {
        --degree[p];
        incident_xor[p] ^= key_index;
        if (degree[p] == 1) {
          queue.push_back(p);
        }
      }
    }
    if (order.size() != m) {
      continue;  // Peeling failed; rebuild with the next derived seed.
    }

    // Assign. Unassigned slots are pre-filled with cryptographically
    // random bytes so a miss XORs to uniform garbage; assigned slots
    // are then fixed up in reverse peel order, at which point the two
    // sibling slots of each key already hold their final values.
    crypto::SecureRandom fill_rng(attempt_seed ^ 0xF0F0F0F0F0F0F0F0ULL);
    std::vector<Bytes> slots(num_slots);
    for (uint64_t s = 0; s < num_slots; ++s) {
      slots[s].resize(record);
      fill_rng.Fill(slots[s]);
    }
    for (size_t i = order.size(); i-- > 0;) {
      const uint64_t key_index = order[i].first;
      const uint64_t free_slot = order[i].second;
      Bytes record_bytes(record, 0);
      std::copy(digests[key_index].begin(), digests[key_index].end(),
                record_bytes.begin());
      const Bytes& value = entries[key_index].value;
      record_bytes[16] = static_cast<uint8_t>(value.size() & 0xFF);
      record_bytes[17] = static_cast<uint8_t>((value.size() >> 8) & 0xFF);
      std::copy(value.begin(), value.end(),
                record_bytes.begin() + kEntryOverhead);
      for (const uint64_t p : Positions(digests[key_index], segment_len)) {
        if (p == free_slot) {
          continue;
        }
        for (size_t b = 0; b < record; ++b) {
          record_bytes[b] ^= slots[p][b];
        }
      }
      slots[free_slot] = std::move(record_bytes);
    }

    FuseKeywordMap::Geometry geometry;
    geometry.seed = attempt_seed;
    geometry.num_slots = num_slots;
    geometry.value_size = static_cast<uint32_t>(options.value_size);
    geometry.num_keys = m;
    geometry.page_size = static_cast<uint32_t>(options.page_size);

    BuiltKeywordStore store;
    store.pages.reserve(num_slots);
    for (uint64_t s = 0; s < num_slots; ++s) {
      Bytes page(options.page_size, 0);
      std::copy(slots[s].begin(), slots[s].end(), page.begin());
      store.pages.emplace_back(s, std::move(page));
    }
    local_stats.num_slots = num_slots;
    local_stats.space_overhead =
        static_cast<double>(num_slots) / static_cast<double>(m);
    if (stats != nullptr) {
      *stats = local_stats;
    }
    store.map =
        std::make_unique<FuseKeywordMap>(geometry, options.build_version);
    store.manifest = store.map->Serialize();
    return store;
  }
  if (stats != nullptr) {
    *stats = local_stats;
  }
  return ResourceExhaustedError(
      "fuse build: peeling failed after " +
      std::to_string(options.max_build_attempts) + " attempts");
}

}  // namespace shpir::keyword
