// Keyword PIR key-value store CLI: builds keyword stores offline, runs
// private lookups against them over an in-process c-approximate engine,
// and micro-benchmarks builds at scale.
//
//   shpir_kv build --in FILE --store DIR [--kind cuckoo|fuse]
//                  [--page-size B] [--value-size V] [--seed S]
//                  [--build-version V]
//
// FILE holds one tab-separated "key<TAB>value" pair per line. Writes
// DIR/manifest.bin (the public map artifact) and DIR/pages.bin (the
// store pages, concatenated in page-id order).
//
//   shpir_kv get --store DIR --key K [--cache M] [--c C]
//
// Loads the store into an in-process c-approximate engine and performs
// one private lookup; prints the value or reports a miss. Exit status 0
// on a hit, 3 on a clean miss.
//
//   shpir_kv bench --keys N [--queries Q] [--kind cuckoo|fuse]
//                  [--hit-ratio R] [--page-size B] [--seed S]
//
// Builds an N-key store over the canonical key space (workload::
// KeyForIndex) and times the build and map-level resolve+extract
// throughput with a Zipfian hit/miss key mix; verifies every answer
// against ground truth.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "keyword/keyword_client.h"
#include "keyword/keyword_cuckoo.h"
#include "keyword/keyword_fuse.h"
#include "workload/workload.h"

namespace {

using namespace shpir;
using cli::Flags;
using cli::Kind;

/// The flags `mode` accepts; empty for an unknown mode. BuildStore's
/// flags serve both build and bench.
std::vector<cli::Flag> AcceptedFlags(const std::string& mode) {
  const std::vector<cli::Flag> store = {{"kind", Kind::kText},
                                        {"page-size", Kind::kCount},
                                        {"value-size", Kind::kCount},
                                        {"seed", Kind::kCount},
                                        {"build-version", Kind::kCount}};
  std::vector<cli::Flag> flags;
  if (mode == "build") {
    flags = store;
    flags.insert(flags.end(), {{"in", Kind::kText}, {"store", Kind::kText}});
  } else if (mode == "get") {
    flags = {{"store", Kind::kText},
             {"key", Kind::kText},
             {"cache", Kind::kCount},
             {"c", Kind::kReal},
             {"seed", Kind::kCount}};
  } else if (mode == "bench") {
    flags = store;
    flags.insert(flags.end(), {{"keys", Kind::kCount},
                               {"queries", Kind::kCount},
                               {"hit-ratio", Kind::kReal}});
  }
  return flags;
}

int Usage() {
  std::fprintf(stderr,
               "usage: shpir_kv build --in FILE --store DIR [options]\n"
               "       shpir_kv get --store DIR --key K [options]\n"
               "       shpir_kv bench --keys N [options]\n");
  return 2;
}

Result<std::vector<keyword::KeyValue>> ReadTsv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open input file " + path);
  }
  std::vector<keyword::KeyValue> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return InvalidArgumentError("input line without a tab separator: " +
                                  line.substr(0, 40));
    }
    keyword::KeyValue entry;
    entry.key.assign(line.begin(),
                     line.begin() + static_cast<ptrdiff_t>(tab));
    entry.value.assign(line.begin() + static_cast<ptrdiff_t>(tab) + 1,
                      line.end());
    entries.push_back(std::move(entry));
  }
  return entries;
}

Status WriteFile(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return InternalError("cannot write " + path);
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out ? OkStatus() : InternalError("short write to " + path);
}

Result<Bytes> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

Result<keyword::BuiltKeywordStore> BuildStore(
    const std::vector<keyword::KeyValue>& entries, const Flags& flags) {
  const std::string kind = flags.Get("kind", "cuckoo");
  if (kind == "cuckoo") {
    keyword::CuckooOptions options;
    options.page_size = flags.GetU64("page-size", 256);
    options.seed = flags.GetU64("seed", 1);
    options.build_version = flags.GetU64("build-version", 1);
    return keyword::BuildCuckooStore(entries, options);
  }
  if (kind == "fuse") {
    keyword::FuseOptions options;
    size_t max_value = 8;
    for (const keyword::KeyValue& entry : entries) {
      max_value = std::max(max_value, entry.value.size());
    }
    options.value_size = flags.GetU64("value-size", max_value);
    options.page_size = flags.GetU64(
        "page-size", keyword::kEntryOverhead + options.value_size);
    options.seed = flags.GetU64("seed", 1);
    options.build_version = flags.GetU64("build-version", 1);
    return keyword::BuildFuseStore(entries, options);
  }
  return InvalidArgumentError("unknown --kind " + kind +
                              " (expected cuckoo or fuse)");
}

int RunBuild(const Flags& flags) {
  const std::string in = flags.Get("in");
  const std::string store = flags.Get("store");
  if (in.empty() || store.empty()) {
    return Usage();
  }
  Result<std::vector<keyword::KeyValue>> entries = ReadTsv(in);
  // shpir-lint-allow-next-line(secret-branch): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  if (!entries.ok()) {
    // shpir-lint-allow-next-line(secret-log): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
    std::fprintf(stderr, "error: %s\n", entries.status().ToString().c_str());
    return 1;
  }
  const auto start = std::chrono::steady_clock::now();
  // shpir-lint-allow-next-line(secret-arg): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  Result<keyword::BuiltKeywordStore> built = BuildStore(*entries, flags);
  // shpir-lint-allow-next-line(secret-branch): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  if (!built.ok()) {
    // shpir-lint-allow-next-line(secret-log): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
    std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const double build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  Bytes pages;
  // shpir-lint-allow-next-line(secret-alloc): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  pages.reserve(built->pages.size() * built->map->page_size());
  for (const storage::Page& page : built->pages) {
    pages.insert(pages.end(), page.data.begin(), page.data.end());
  }
  Status status = WriteFile(store + "/manifest.bin", built->manifest);
  // shpir-lint-allow-next-line(secret-branch): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  if (status.ok()) {
    status = WriteFile(store + "/pages.bin", pages);
  }
  // shpir-lint-allow-next-line(secret-branch): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  if (!status.ok()) {
    // shpir-lint-allow-next-line(secret-log): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  // shpir-lint-allow-next-line(secret-log): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  std::printf(
      "built %s store: %llu keys, %llu pages of %zu bytes, "
      "%zu-byte manifest, %.3f s\n",
      built->map->name(),
      static_cast<unsigned long long>(built->map->num_keys()),
      static_cast<unsigned long long>(built->map->num_pages()),
      built->map->page_size(), built->manifest.size(), build_s);
  return 0;
}

int RunGet(const Flags& flags) {
  const std::string store = flags.Get("store");
  const std::string key = flags.Get("key");
  if (store.empty() || key.empty()) {
    return Usage();
  }
  Result<Bytes> manifest = ReadFileBytes(store + "/manifest.bin");
  Result<Bytes> page_bytes = ReadFileBytes(store + "/pages.bin");
  // shpir-lint-allow-next-line(secret-branch): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  if (!manifest.ok() || !page_bytes.ok()) {
    const Status& bad =
        // shpir-lint-allow-next-line(secret-branch): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
        manifest.ok() ? page_bytes.status() : manifest.status();
    // shpir-lint-allow-next-line(secret-log): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
    std::fprintf(stderr, "error: %s\n", bad.ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<keyword::KeywordMap>> map =
      // shpir-lint-allow-next-line(secret-arg): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
      keyword::KeywordMap::Deserialize(*manifest);
  // shpir-lint-allow-next-line(secret-branch): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  if (!map.ok()) {
    // shpir-lint-allow-next-line(secret-log): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
    std::fprintf(stderr, "error: %s\n", map.status().ToString().c_str());
    return 1;
  }
  const size_t page_size = (*map)->page_size();
  const uint64_t num_pages = (*map)->num_pages();
  // shpir-lint-allow-next-line(secret-branch, secret-compare): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  if (page_bytes->size() != num_pages * page_size) {
    std::fprintf(stderr, "error: pages.bin size mismatch\n");
    return 1;
  }

  // Spin up the private engine over the store pages.
  core::CApproxPir::Options options;
  options.num_pages = num_pages;
  options.page_size = page_size;
  options.cache_pages =
      flags.GetU64("cache", std::max<uint64_t>(8, num_pages / 16));
  options.privacy_c = flags.GetDouble("c", 2.0);
  Result<std::unique_ptr<core::EngineStack>> stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), flags.GetU64("seed", 42));
  if (!stack.ok()) {
    std::fprintf(stderr, "error: %s\n", stack.status().ToString().c_str());
    return 1;
  }
  core::CApproxPir& engine = (*stack)->engine();
  std::vector<storage::Page> pages;
  // shpir-lint-allow-next-line(secret-alloc): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  pages.reserve(num_pages);
  // shpir-lint-allow-next-line(secret-loop-bound): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  for (uint64_t id = 0; id < num_pages; ++id) {
    pages.emplace_back(
        id, Bytes(page_bytes->begin() + static_cast<ptrdiff_t>(id * page_size),
                  page_bytes->begin() +
                      static_cast<ptrdiff_t>((id + 1) * page_size)));
  }
  Status init = engine.Initialize(pages);
  if (!init.ok()) {
    // shpir-lint-allow-next-line(secret-log): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
    std::fprintf(stderr, "error: %s\n", init.ToString().c_str());
    return 1;
  }

  Result<std::unique_ptr<keyword::KeywordClient>> client =
      // shpir-lint-allow-next-line(secret-arg): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
      keyword::KeywordClient::Create(
          // shpir-lint-allow-next-line(secret-arg): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
          *manifest, keyword::KeywordClient::EngineFetch(&engine));
  // shpir-lint-allow-next-line(secret-branch): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  if (!client.ok()) {
    // shpir-lint-allow-next-line(secret-log): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
    std::fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
    return 1;
  }
  Result<std::optional<Bytes>> value =
      (*client)->Get(common::Secret<Bytes>(Bytes(key.begin(), key.end())));
  // shpir-lint-allow-next-line(secret-branch): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  if (!value.ok()) {
    // shpir-lint-allow-next-line(secret-log): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
    std::fprintf(stderr, "error: %s\n", value.status().ToString().c_str());
    return 1;
  }
  // shpir-lint-allow-next-line(secret-branch): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  if (!value->has_value()) {
    std::printf("(not found)\n");
    return 3;
  }
  // shpir-lint-allow-next-line(secret-log): operator CLI: handles and prints the operator's own keys, values, and progress on their machine; the provider sees only the PIR stream underneath
  std::fwrite((*value)->data(), 1, (*value)->size(), stdout);
  std::printf("\n");
  return 0;
}

int RunBench(const Flags& flags) {
  const uint64_t num_keys = flags.GetU64("keys", 0);
  if (num_keys == 0) {
    return Usage();
  }
  const uint64_t queries = flags.GetU64("queries", 10000);
  const double hit_ratio = flags.GetDouble("hit-ratio", 0.8);
  std::vector<keyword::KeyValue> entries(num_keys);
  for (uint64_t i = 0; i < num_keys; ++i) {
    entries[i].key = workload::KeyForIndex(i);
    const std::string value = "value-" + std::to_string(i);
    entries[i].value.assign(value.begin(), value.end());
  }
  const auto build_start = std::chrono::steady_clock::now();
  Result<keyword::BuiltKeywordStore> built = BuildStore(entries, flags);
  if (!built.ok()) {
    std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const double build_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - build_start)
                             .count();
  // Map-level lookups (resolve + page scan, no PIR engine): measures the
  // front-end data structure alone. Verified against ground truth.
  std::vector<Bytes> page_store;
  page_store.reserve(built->pages.size());
  for (const storage::Page& page : built->pages) {
    page_store.push_back(page.data);
  }
  workload::ZipfKeyWorkload keys(num_keys, 0.99, hit_ratio,
                                 flags.GetU64("seed", 7));
  uint64_t hits = 0;
  const auto query_start = std::chrono::steady_clock::now();
  for (uint64_t q = 0; q < queries; ++q) {
    const workload::KeyRequest request = keys.Next();
    const keyword::KeywordDigest digest =
        keyword::DigestKey(request.key, built->map->seed());
    std::vector<Bytes> fetched;
    for (const storage::PageId id : built->map->Probes(digest)) {
      fetched.push_back(page_store[id]);
    }
    Result<std::optional<Bytes>> value =
        built->map->Extract(digest, fetched);
    if (!value.ok()) {
      std::fprintf(stderr, "error: %s\n", value.status().ToString().c_str());
      return 1;
    }
    if (value->has_value() != request.hit) {
      std::fprintf(stderr, "error: wrong %s for key %s\n",
                   request.hit ? "miss" : "hit",
                   std::string(request.key.begin(), request.key.end())
                       .c_str());
      return 1;
    }
    hits += value->has_value() ? 1 : 0;
  }
  const double query_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - query_start)
                             .count();
  std::printf(
      "%s: %llu keys built in %.3f s; %llu map-level queries "
      "(%.0f%% hits) in %.3f s (%.0f q/s), all verified\n",
      built->map->name(), static_cast<unsigned long long>(num_keys), build_s,
      static_cast<unsigned long long>(queries),
      100.0 * static_cast<double>(hits) / static_cast<double>(queries),
      query_s, static_cast<double>(queries) / query_s);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc < 2 ? "" : argv[1];
  const std::vector<cli::Flag> accepted = AcceptedFlags(mode);
  const std::optional<Flags> flags =
      accepted.empty() ? std::nullopt : Flags::Parse(argc, argv, 2, accepted);
  if (!flags || !flags->positional().empty()) {
    return Usage();
  }
  if (mode == "build") {
    return RunBuild(*flags);
  }
  if (mode == "get") {
    return RunGet(*flags);
  }
  return RunBench(*flags);
}
