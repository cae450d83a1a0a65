#include "keyword/keyword_client.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/secret.h"
#include "core/engine_stack.h"
#include "keyword/keyword_cuckoo.h"
#include "keyword/keyword_fuse.h"
#include "storage/access_trace.h"
#include "workload/workload.h"
#include "test_stack.h"

namespace shpir::keyword {
namespace {

using storage::Page;
using storage::PageId;

Bytes B(const std::string& text) { return Bytes(text.begin(), text.end()); }

std::vector<KeyValue> MakeEntries(uint64_t count) {
  std::vector<KeyValue> entries(count);
  for (uint64_t i = 0; i < count; ++i) {
    entries[i].key = workload::KeyForIndex(i);
    entries[i].value = B("value-" + std::to_string(i));
  }
  return entries;
}

/// A keyword store served by a real c-approximate engine behind a
/// tracing disk — the adversary's full view of each lookup.
struct Rig {
  storage::AccessTrace trace;
  std::unique_ptr<core::EngineStack> stack;
  std::unique_ptr<KeywordClient> client;

  static Rig Make(const BuiltKeywordStore& store, uint64_t seed = 42) {
    Rig rig;
    core::CApproxPir::Options options;
    options.num_pages = store.map->num_pages();
    options.page_size = store.map->page_size();
    options.cache_pages = 8;
    options.block_size = 8;
    rig.stack = test::LoadedStack(options, seed, store.pages, &rig.trace);
    auto client = KeywordClient::Create(
        store.manifest, KeywordClient::EngineFetch(&rig.stack->engine()));
    SHPIR_CHECK(client.ok());
    rig.client = std::move(client).value();
    return rig;
  }
};

Result<std::optional<Bytes>> Get(Rig& rig, const Bytes& key) {
  return rig.client->Get(common::Secret<Bytes>(key));
}

void ExpectEndToEnd(const BuiltKeywordStore& store,
                    const std::vector<KeyValue>& entries) {
  Rig rig = Rig::Make(store);
  for (size_t i = 0; i < entries.size(); i += 7) {
    Result<std::optional<Bytes>> value = Get(rig, entries[i].key);
    ASSERT_TRUE(value.ok()) << value.status();
    ASSERT_TRUE(value->has_value()) << "missing key " << i;
    EXPECT_EQ(**value, entries[i].value);
  }
  Result<std::optional<Bytes>> miss = Get(rig, B("no-such-key"));
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->has_value());
}

TEST(KeywordClientTest, CuckooEndToEndOverEngine) {
  const auto entries = MakeEntries(300);
  CuckooOptions options;
  options.page_size = 64;
  options.stash_pages = 2;
  auto store = BuildCuckooStore(entries, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ExpectEndToEnd(*store, entries);
}

TEST(KeywordClientTest, FuseEndToEndOverEngine) {
  const auto entries = MakeEntries(300);
  FuseOptions options;
  options.value_size = 16;
  options.page_size = 48;
  auto store = BuildFuseStore(entries, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ExpectEndToEnd(*store, entries);
}

TEST(KeywordClientTest, CountersTrackProbeVolume) {
  const auto entries = MakeEntries(100);
  CuckooOptions options;
  options.page_size = 64;
  auto store = BuildCuckooStore(entries, options);
  ASSERT_TRUE(store.ok()) << store.status();
  Rig rig = Rig::Make(*store);
  const size_t probes = rig.client->map().probes_per_lookup();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Get(rig, entries[i].key).ok());
  }
  ASSERT_TRUE(Get(rig, B("absent")).ok());
  EXPECT_EQ(rig.client->lookups(), 6u);
  EXPECT_EQ(rig.client->pages_fetched(), 6u * probes);
}

TEST(KeywordClientTest, CreateRejectsBadInputs) {
  const auto entries = MakeEntries(20);
  auto store = BuildCuckooStore(entries, CuckooOptions{});
  ASSERT_TRUE(store.ok());
  // Null fetch.
  EXPECT_FALSE(KeywordClient::Create(store->manifest, nullptr).ok());
  // Truncated manifest.
  auto noop = [](PageId) -> Result<Bytes> { return Bytes(); };
  EXPECT_FALSE(
      KeywordClient::Create(ByteSpan(store->manifest.data(), 4), noop).ok());
}

/// The adversary's transcript of a lookup must not depend on whether the
/// key exists. Two identically-seeded rigs replay the same number of
/// Gets — one all hits, one all misses — and their traces must agree
/// event-for-event in shape: same per-Get access counts, same per-Get
/// PIR query counts. (Slot choices differ — that is the engine's
/// c-approximate indirection at work — but counts and timing may not.)
void ExpectShapeIndistinguishable(const BuiltKeywordStore& store,
                                  const std::vector<KeyValue>& entries) {
  constexpr int kLookups = 24;
  Rig hit_rig = Rig::Make(store, /*seed=*/7);
  Rig miss_rig = Rig::Make(store, /*seed=*/7);
  const size_t probes = hit_rig.client->map().probes_per_lookup();

  std::vector<size_t> hit_events, miss_events;
  std::vector<uint64_t> hit_queries, miss_queries;
  for (int i = 0; i < kLookups; ++i) {
    size_t events_before = hit_rig.trace.events().size();
    uint64_t queries_before = hit_rig.trace.num_requests();
    ASSERT_TRUE(Get(hit_rig, entries[i % entries.size()].key).ok());
    hit_events.push_back(hit_rig.trace.events().size() - events_before);
    hit_queries.push_back(hit_rig.trace.num_requests() - queries_before);

    events_before = miss_rig.trace.events().size();
    queries_before = miss_rig.trace.num_requests();
    ASSERT_TRUE(Get(miss_rig, B("absent-" + std::to_string(i))).ok());
    miss_events.push_back(miss_rig.trace.events().size() - events_before);
    miss_queries.push_back(miss_rig.trace.num_requests() - queries_before);
  }
  // Every Get — hit or miss — issues exactly probes_per_lookup() PIR
  // queries...
  for (int i = 0; i < kLookups; ++i) {
    EXPECT_EQ(hit_queries[i], probes) << "hit lookup " << i;
    EXPECT_EQ(miss_queries[i], probes) << "miss lookup " << i;
  }
  // ...and the per-Get disk access counts line up position by position.
  EXPECT_EQ(hit_events, miss_events);
}

TEST(KeywordClientTest, CuckooHitAndMissTracesShapeIdentical) {
  const auto entries = MakeEntries(200);
  CuckooOptions options;
  options.page_size = 64;
  options.stash_pages = 2;
  auto store = BuildCuckooStore(entries, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ExpectShapeIndistinguishable(*store, entries);
}

TEST(KeywordClientTest, FuseHitAndMissTracesShapeIdentical) {
  const auto entries = MakeEntries(200);
  FuseOptions options;
  options.value_size = 16;
  options.page_size = 48;
  auto store = BuildFuseStore(entries, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ExpectShapeIndistinguishable(*store, entries);
}

}  // namespace
}  // namespace shpir::keyword
