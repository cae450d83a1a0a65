#include "keyword/keyword_cuckoo.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "crypto/secure_random.h"

namespace shpir::keyword {

namespace {

constexpr size_t kCuckooBodySize = 8 + 8 + 4 + 8 + 4;

/// Seed for build attempt `attempt` (golden-ratio stride keeps derived
/// seeds well separated even for adjacent base seeds).
uint64_t AttemptSeed(uint64_t base, uint32_t attempt) {
  return base + static_cast<uint64_t>(attempt) * 0x9E3779B97F4A7C15ULL;
}

struct Bucket {
  std::vector<BucketEntry> entries;
  size_t used_bytes = 0;
};

size_t EntryBytes(const BucketEntry& entry) {
  return kEntryOverhead + entry.value.size();
}

bool TryAdd(Bucket& bucket, BucketEntry entry, size_t capacity) {
  const size_t need = EntryBytes(entry);
  if (bucket.used_bytes + need > capacity) {
    return false;
  }
  bucket.used_bytes += need;
  bucket.entries.push_back(std::move(entry));
  return true;
}

}  // namespace

CuckooKeywordMap::CuckooKeywordMap(const Geometry& geometry,
                                   uint64_t build_version)
    : geometry_(geometry), build_version_(build_version) {}

std::pair<uint64_t, uint64_t> CuckooKeywordMap::Buckets(
    const KeywordDigest& digest) const {
  const uint64_t buckets = geometry_.num_buckets;
  const uint64_t first = LoadLE64(digest.data()) % buckets;
  uint64_t second = LoadLE64(digest.data() + 8) % buckets;
  // shpir-lint-allow-next-line(secret-compare): client-local probe derivation; the bucket fetches themselves go through the PIR engine, so the provider never learns which buckets a keyword hashes to
  if (second == first) {
    // Keep the two probes distinct so every lookup touches exactly two
    // bucket pages (requires num_buckets >= 2, enforced by the builder).
    second = (second + 1) % buckets;
  }
  return {first, second};
}

std::vector<storage::PageId> CuckooKeywordMap::Probes(
    const KeywordDigest& digest) const {
  const auto [first, second] = Buckets(digest);
  std::vector<storage::PageId> probes;
  probes.reserve(probes_per_lookup());
  probes.push_back(first);
  probes.push_back(second);
  // The stash pages sit at fixed ids and are fetched on EVERY lookup:
  // a stash hit must look exactly like a bucket hit or a miss.
  for (uint32_t s = 0; s < geometry_.stash_pages; ++s) {
    probes.push_back(geometry_.num_buckets + s);
  }
  return probes;
}

Result<std::optional<Bytes>> CuckooKeywordMap::Extract(
    const KeywordDigest& digest,
    const std::vector<Bytes>& fetched_pages) const {
  if (fetched_pages.size() != probes_per_lookup()) {
    return InvalidArgumentError("cuckoo extract: wrong page count");
  }
  // Scan every fetched page; latch the hit instead of returning early
  // so the work done is independent of where (or whether) the key sits.
  std::optional<Bytes> found;
  for (const Bytes& page : fetched_pages) {
    SHPIR_ASSIGN_OR_RETURN(std::optional<Bytes> hit,
                           ScanBucketPage(page, digest));
    if (hit.has_value()) {
      found = std::move(hit);
    }
  }
  return found;
}

Bytes CuckooKeywordMap::Serialize() const {
  Bytes manifest = MakeManifestHeader(Kind::kCuckoo, build_version_);
  const size_t base = manifest.size();
  manifest.resize(base + kCuckooBodySize);
  StoreLE64(geometry_.seed, manifest.data() + base);
  StoreLE64(geometry_.num_buckets, manifest.data() + base + 8);
  StoreLE32(geometry_.stash_pages, manifest.data() + base + 16);
  StoreLE64(geometry_.num_keys, manifest.data() + base + 20);
  StoreLE32(geometry_.page_size, manifest.data() + base + 28);
  return manifest;
}

Result<std::unique_ptr<KeywordMap>> CuckooKeywordMap::FromManifestBody(
    uint64_t build_version, ByteSpan body) {
  if (body.size() != kCuckooBodySize) {
    return DataLossError("truncated cuckoo keyword manifest body");
  }
  Geometry geometry;
  geometry.seed = LoadLE64(body.data());
  geometry.num_buckets = LoadLE64(body.data() + 8);
  geometry.stash_pages = LoadLE32(body.data() + 16);
  geometry.num_keys = LoadLE64(body.data() + 20);
  geometry.page_size = LoadLE32(body.data() + 28);
  if (geometry.num_buckets < 2) {
    return InvalidArgumentError("cuckoo keyword manifest: < 2 buckets");
  }
  if (geometry.page_size < kBucketPageHeader + kEntryOverhead) {
    return InvalidArgumentError("cuckoo keyword manifest: page too small");
  }
  return std::unique_ptr<KeywordMap>(
      std::make_unique<CuckooKeywordMap>(geometry, build_version));
}

Result<BuiltKeywordStore> BuildCuckooStore(
    const std::vector<KeyValue>& entries, const CuckooOptions& options,
    CuckooBuildStats* stats) {
  if (options.page_size < kBucketPageHeader + kEntryOverhead) {
    return InvalidArgumentError("cuckoo build: page_size too small");
  }
  const size_t capacity = options.page_size - kBucketPageHeader;
  size_t total_bytes = 0;
  for (const KeyValue& entry : entries) {
    const size_t need = BucketEntrySize(entry);
    if (need > capacity) {
      return InvalidArgumentError(
          "cuckoo build: entry of " + std::to_string(need) +
          " bytes exceeds the bucket capacity of " +
          std::to_string(capacity));
    }
    total_bytes += need;
  }
  // Duplicate keys are a caller bug: the same key mapping to two values
  // would make Get() nondeterministic.
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
        return AlreadyExistsError("cuckoo build: duplicate key");
      }
    }
  }
  if (options.target_load <= 0.0 || options.target_load > 1.0) {
    return InvalidArgumentError("cuckoo build: target_load out of (0, 1]");
  }
  uint64_t num_buckets = options.forced_buckets;
  if (num_buckets == 0) {
    num_buckets = static_cast<uint64_t>(std::ceil(
        static_cast<double>(total_bytes) /
        (static_cast<double>(capacity) * options.target_load)));
    // Byte load alone undersizes the table when entries are large
    // relative to the bucket: with e.g. 2 entry slots per bucket, 85%
    // byte load means ~98% slot occupancy — past the 2-choice insertion
    // threshold. Also bound the ENTRY-slot occupancy, with headroom
    // that shrinks as buckets get smaller (the d=2 bucketized-cuckoo
    // threshold falls steeply below 4 slots per bucket).
    size_t max_need = 0;
    for (const KeyValue& entry : entries) {
      max_need = std::max(max_need, BucketEntrySize(entry));
    }
    const uint64_t slots_per_bucket =
        std::max<uint64_t>(1, capacity / max_need);
    double slot_target = 0.93;
    if (slots_per_bucket == 1) {
      slot_target = 0.40;
    } else if (slots_per_bucket == 2) {
      slot_target = 0.80;
    } else if (slots_per_bucket == 3) {
      slot_target = 0.88;
    }
    num_buckets = std::max(
        num_buckets,
        static_cast<uint64_t>(std::ceil(
            static_cast<double>(entries.size()) /
            (static_cast<double>(slots_per_bucket) * slot_target))));
  }
  num_buckets = std::max<uint64_t>(num_buckets, 2);
  const size_t stash_capacity =
      static_cast<size_t>(options.stash_pages) * capacity;

  CuckooBuildStats local_stats;
  crypto::SecureRandom rng(options.seed ^ 0xC0C0C0C0C0C0C0C0ULL);
  for (uint32_t attempt = 0; attempt < options.max_build_attempts;
       ++attempt) {
    local_stats.attempts = attempt + 1;
    if (attempt < options.simulate_failed_attempts) {
      continue;  // Test hook: pretend this seed overflowed the stash.
    }
    const uint64_t attempt_seed = AttemptSeed(options.seed, attempt);
    std::vector<Bucket> buckets(num_buckets);
    std::vector<BucketEntry> stash;
    size_t stash_bytes = 0;
    uint64_t kicks = 0;
    bool overflow = false;

    CuckooKeywordMap::Geometry geometry;
    geometry.seed = attempt_seed;
    geometry.num_buckets = num_buckets;
    geometry.stash_pages = options.stash_pages;
    geometry.num_keys = entries.size();
    geometry.page_size = static_cast<uint32_t>(options.page_size);
    CuckooKeywordMap map(geometry, options.build_version);

    for (const KeyValue& entry : entries) {
      BucketEntry current;
      current.digest = DigestKey(entry.key, attempt_seed);
      current.value = entry.value;
      bool placed = false;
      for (uint32_t kick = 0; kick <= options.max_kicks; ++kick) {
        const auto [first, second] = map.Buckets(current.digest);
        if (TryAdd(buckets[first], current, capacity) ||
            TryAdd(buckets[second], current, capacity)) {
          placed = true;
          break;
        }
        // Displace a random victim from a random candidate bucket and
        // carry it onwards (random-walk cuckoo).
        const uint64_t victim_bucket =
            rng.UniformInt(2) == 0 ? first : second;
        Bucket& home = buckets[victim_bucket];
        if (home.entries.empty()) {
          continue;  // Burn a kick; the other bucket may yield next time.
        }
        const size_t victim_index = rng.UniformInt(home.entries.size());
        BucketEntry victim = std::move(home.entries[victim_index]);
        home.entries.erase(home.entries.begin() +
                           static_cast<ptrdiff_t>(victim_index));
        home.used_bytes -= EntryBytes(victim);
        if (!TryAdd(home, current, capacity)) {
          // Still too big after one eviction (a smaller victim than the
          // incomer); undo and burn the kick.
          TryAdd(home, std::move(victim), capacity);
          continue;
        }
        current = std::move(victim);
        ++kicks;
      }
      if (!placed) {
        // Kick budget exhausted (an insertion cycle): stash the orphan.
        const size_t need = EntryBytes(current);
        if (stash_bytes + need > stash_capacity) {
          overflow = true;  // Stash overflow => rebuild with a new seed.
          break;
        }
        stash_bytes += need;
        stash.push_back(std::move(current));
      }
    }
    if (overflow) {
      continue;
    }

    // Success: materialize the pages.
    BuiltKeywordStore store;
    store.pages.reserve(num_buckets + options.stash_pages);
    size_t bucket_bytes = 0;
    for (uint64_t b = 0; b < num_buckets; ++b) {
      bucket_bytes += buckets[b].used_bytes;
      store.pages.emplace_back(
          b, EncodeBucketPage(buckets[b].entries, options.page_size));
    }
    // Pack the stash into its fixed pages (first-fit; entries are small
    // relative to a page, and the stash is tiny by construction).
    std::vector<std::vector<BucketEntry>> stash_pages(options.stash_pages);
    std::vector<size_t> stash_used(options.stash_pages, 0);
    for (BucketEntry& entry : stash) {
      const size_t need = EntryBytes(entry);
      bool stored = false;
      for (uint32_t s = 0; s < options.stash_pages; ++s) {
        if (stash_used[s] + need <= capacity) {
          stash_used[s] += need;
          stash_pages[s].push_back(std::move(entry));
          stored = true;
          break;
        }
      }
      if (!stored) {
        overflow = true;  // Fragmentation across stash pages.
        break;
      }
    }
    if (overflow) {
      continue;
    }
    for (uint32_t s = 0; s < options.stash_pages; ++s) {
      store.pages.emplace_back(
          num_buckets + s,
          EncodeBucketPage(stash_pages[s], options.page_size));
    }
    local_stats.num_buckets = num_buckets;
    local_stats.stash_entries = stash.size();
    local_stats.kicks = kicks;
    local_stats.load_factor =
        static_cast<double>(bucket_bytes) /
        (static_cast<double>(num_buckets) * static_cast<double>(capacity));
    if (stats != nullptr) {
      *stats = local_stats;
    }
    store.map = std::make_unique<CuckooKeywordMap>(geometry,
                                                   options.build_version);
    store.manifest = store.map->Serialize();
    return store;
  }
  if (stats != nullptr) {
    *stats = local_stats;
  }
  return ResourceExhaustedError(
      "cuckoo build: stash overflow after " +
      std::to_string(options.max_build_attempts) +
      " attempts; grow the table (lower target_load) or the stash");
}

}  // namespace shpir::keyword
