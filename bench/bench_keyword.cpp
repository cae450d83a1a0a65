// Keyword PIR front-end (src/keyword/): offline build cost and load
// factor of both KeywordMap implementations at scale, map-level and
// end-to-end (engine-backed) lookup throughput, and an empirical
// privacy audit of the keyword-driven access trace.
//
// The front-end's privacy argument is structural — every Get issues
// exactly probes_per_lookup() c-approximate PIR queries whatever the
// key and whether or not it exists — so the audit drives a real engine
// with the flattened keyword probe stream (Zipfian keys, 25% misses)
// and checks the measured relocation ratio still meets the engine's
// configured c bound, and that hit and miss lookups fetch identical
// page counts.
//
// Writes BENCH_keyword.json. --short shrinks the key counts and query
// budgets for CI smoke runs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/privacy_audit.h"
#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "keyword/keyword_client.h"
#include "keyword/keyword_cuckoo.h"
#include "keyword/keyword_fuse.h"
#include "workload/workload.h"

namespace {

using namespace shpir;

uint64_t g_build_keys = 1000000;   // Reduced by --short.
uint64_t g_map_queries = 200000;   // Map-level (no engine) lookups.
uint64_t g_e2e_queries = 300;      // Engine-backed private lookups.
uint64_t g_audit_lookups = 4000;   // Keyword lookups behind the audit.

constexpr double kHitRatio = 0.75;
constexpr double kZipfExponent = 0.99;
constexpr double kPrivacyC = 2.0;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<keyword::KeyValue> MakeEntries(uint64_t num_keys) {
  std::vector<keyword::KeyValue> entries(num_keys);
  for (uint64_t i = 0; i < num_keys; ++i) {
    entries[i].key = workload::KeyForIndex(i);
    const std::string value = "value-" + std::to_string(i);
    entries[i].value.assign(value.begin(), value.end());
  }
  return entries;
}

struct BuildRow {
  const char* name = "";
  double build_s = 0;
  double load_factor = 0;       // Cuckoo only.
  double space_overhead = 0;    // Fuse only (slots per key).
  uint32_t attempts = 0;
  uint64_t num_pages = 0;
  size_t probes = 0;
  double map_qps = 0;
};

/// Map-level lookups (digest + probe + page scan, no PIR): the cost of
/// the front-end data structure alone. Every answer is verified.
double MeasureMapQps(const keyword::BuiltKeywordStore& store,
                     uint64_t num_keys, uint64_t queries) {
  std::vector<const Bytes*> page_store(store.pages.size());
  for (const storage::Page& page : store.pages) {
    page_store[page.id] = &page.data;
  }
  workload::ZipfKeyWorkload keys(num_keys, kZipfExponent, kHitRatio, 99);
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t q = 0; q < queries; ++q) {
    const workload::KeyRequest request = keys.Next();
    const keyword::KeywordDigest digest =
        keyword::DigestKey(request.key, store.map->seed());
    std::vector<Bytes> fetched;
    fetched.reserve(store.map->probes_per_lookup());
    for (const storage::PageId id : store.map->Probes(digest)) {
      fetched.push_back(*page_store[id]);
    }
    Result<std::optional<Bytes>> value = store.map->Extract(digest, fetched);
    SHPIR_CHECK(value.ok());
    SHPIR_CHECK(value->has_value() == request.hit);
  }
  return static_cast<double>(queries) / SecondsSince(start);
}

BuildRow RunCuckooBuild() {
  const auto entries = MakeEntries(g_build_keys);
  keyword::CuckooOptions options;
  options.page_size = 256;
  options.seed = 21;
  keyword::CuckooBuildStats stats;
  const auto start = std::chrono::steady_clock::now();
  auto store = keyword::BuildCuckooStore(entries, options, &stats);
  SHPIR_CHECK(store.ok());
  BuildRow row;
  row.name = "cuckoo";
  row.build_s = SecondsSince(start);
  row.load_factor = stats.load_factor;
  row.attempts = stats.attempts;
  row.num_pages = store->map->num_pages();
  row.probes = store->map->probes_per_lookup();
  row.map_qps = MeasureMapQps(*store, g_build_keys, g_map_queries);
  return row;
}

BuildRow RunFuseBuild() {
  const auto entries = MakeEntries(g_build_keys);
  keyword::FuseOptions options;
  options.value_size = 16;
  options.page_size = keyword::kEntryOverhead + options.value_size;
  options.seed = 22;
  keyword::FuseBuildStats stats;
  const auto start = std::chrono::steady_clock::now();
  auto store = keyword::BuildFuseStore(entries, options, &stats);
  SHPIR_CHECK(store.ok());
  BuildRow row;
  row.name = "fuse";
  row.build_s = SecondsSince(start);
  row.space_overhead = stats.space_overhead;
  row.attempts = stats.attempts;
  row.num_pages = store->map->num_pages();
  row.probes = store->map->probes_per_lookup();
  row.map_qps = MeasureMapQps(*store, g_build_keys, g_map_queries);
  return row;
}

/// Small keyword store whose pages load into a real c-approximate
/// engine: the audit and end-to-end numbers run against this.
struct KeywordRig {
  keyword::BuiltKeywordStore store;
  std::unique_ptr<storage::AccessTrace> trace =
      std::make_unique<storage::AccessTrace>();
  std::unique_ptr<core::EngineStack> stack;
  std::unique_ptr<keyword::KeywordClient> client;
  uint64_t num_keys = 0;
};

KeywordRig MakeKeywordRig(uint64_t num_keys, uint64_t engine_seed) {
  KeywordRig rig;
  rig.num_keys = num_keys;
  keyword::CuckooOptions options;
  options.page_size = 64;
  options.stash_pages = 2;
  options.seed = 31;
  auto store = keyword::BuildCuckooStore(MakeEntries(num_keys), options);
  SHPIR_CHECK(store.ok());
  rig.store = std::move(store).value();

  core::CApproxPir::Options engine_options;
  engine_options.num_pages = rig.store.map->num_pages();
  engine_options.page_size = rig.store.map->page_size();
  engine_options.cache_pages =
      std::max<uint64_t>(8, engine_options.num_pages / 16);
  engine_options.privacy_c = kPrivacyC;
  rig.stack = bench::MakeStack(engine_options, engine_seed, rig.trace.get(),
                               rig.store.pages);

  auto client = keyword::KeywordClient::Create(
      rig.store.manifest,
      keyword::KeywordClient::EngineFetch(&rig.stack->engine()));
  SHPIR_CHECK(client.ok());
  rig.client = std::move(client).value();
  return rig;
}

struct E2eResult {
  double qps = 0;
  double shape_uniform = 0;  // 1.0 = every lookup fetched probes pages.
};

/// End-to-end private lookups: each Get issues probes_per_lookup() PIR
/// queries against the engine. Wall-clock q/s (informational) plus the
/// shape check: hits and misses must fetch identical page counts.
E2eResult RunEndToEnd(KeywordRig& rig) {
  workload::ZipfKeyWorkload keys(rig.num_keys, kZipfExponent, kHitRatio,
                                 123);
  const size_t probes = rig.store.map->probes_per_lookup();
  bool shape_ok = true;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t q = 0; q < g_e2e_queries; ++q) {
    const workload::KeyRequest request = keys.Next();
    const uint64_t before = rig.client->pages_fetched();
    Result<std::optional<Bytes>> value =
        rig.client->Get(common::Secret<Bytes>(Bytes(request.key)));
    SHPIR_CHECK(value.ok());
    // shpir-lint-allow-next-line(secret-compare): benchmark correctness check of the retrieved value, wholly client-side
    SHPIR_CHECK(value->has_value() == request.hit);
    shape_ok = shape_ok &&
               rig.client->pages_fetched() - before == probes;
  }
  E2eResult result;
  result.qps = static_cast<double>(g_e2e_queries) / SecondsSince(start);
  result.shape_uniform = shape_ok ? 1.0 : 0.0;
  return result;
}

/// Empirical privacy of the keyword-driven trace: the flattened probe
/// stream (every candidate page of every lookup, in order) drives a
/// fresh engine via the standard relocation audit.
analysis::PrivacyReport RunKeywordAudit(KeywordRig& rig) {
  workload::ZipfKeyWorkload keys(rig.num_keys, kZipfExponent, kHitRatio,
                                 321);
  std::vector<storage::PageId> stream;
  stream.reserve(g_audit_lookups * rig.store.map->probes_per_lookup());
  for (uint64_t q = 0; q < g_audit_lookups; ++q) {
    const keyword::KeywordDigest digest =
        keyword::DigestKey(keys.Next().key, rig.store.map->seed());
    for (const storage::PageId id : rig.store.map->Probes(digest)) {
      stream.push_back(id);
    }
  }
  size_t cursor = 0;
  auto report = analysis::RunPrivacyAudit(
      rig.stack->engine(), stream.size(),
      [&stream, &cursor] { return stream[cursor++]; });
  SHPIR_CHECK(report.ok());
  return *report;
}

void WriteJson(const char* path, const BuildRow& cuckoo,
               const BuildRow& fuse, const E2eResult& e2e,
               const analysis::PrivacyReport& audit) {
  using bench::BenchReport;
  BenchReport report("bench_keyword");
  report.SetHardwareProfile(hardware::HardwareProfile::Ibm4764());
  report.SetParam("build_keys", g_build_keys);
  report.SetParam("map_queries", g_map_queries);
  report.SetParam("e2e_queries", g_e2e_queries);
  report.SetParam("audit_lookups", g_audit_lookups);
  report.SetParam("hit_ratio", kHitRatio);
  report.SetParam("zipf_exponent", kZipfExponent);
  report.SetParam("target_c", kPrivacyC);

  // Deterministic structure metrics (seeded builds): tight gates.
  report.AddMetric("cuckoo_load_factor", cuckoo.load_factor,
                   BenchReport::Direction::kHigherBetter, 2.0);
  report.AddMetric("cuckoo_probes_per_lookup",
                   static_cast<double>(cuckoo.probes),
                   BenchReport::Direction::kLowerBetter, 0.0);
  report.AddMetric("fuse_space_overhead", fuse.space_overhead,
                   BenchReport::Direction::kLowerBetter, 2.0);
  report.AddMetric("fuse_probes_per_lookup",
                   static_cast<double>(fuse.probes),
                   BenchReport::Direction::kLowerBetter, 0.0);
  report.AddMetric("shape_uniform", e2e.shape_uniform,
                   BenchReport::Direction::kHigherBetter, 0.0);
  // Privacy: the keyword-driven trace must stay within the engine's
  // configured bound (small slack for finite-sample noise).
  report.AddBudgetMetric("keyword_analytic_c", audit.analytic_c,
                         kPrivacyC);
  report.AddBudgetMetric("keyword_measured_c", audit.measured_c,
                         1.15 * kPrivacyC);
  // Wall-clock numbers: informational (shared CI machines).
  report.AddMetric("cuckoo_build_s", cuckoo.build_s,
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("fuse_build_s", fuse.build_s,
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("cuckoo_map_qps", cuckoo.map_qps,
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("fuse_map_qps", fuse.map_qps,
                   BenchReport::Direction::kNone, 0.0);
  report.AddMetric("e2e_qps", e2e.qps, BenchReport::Direction::kNone,
                   0.0);

  char builds[512];
  std::snprintf(
      builds, sizeof(builds),
      "[\n      {\"kind\": \"cuckoo\", \"keys\": %llu, \"build_s\": %.3f, "
      "\"load_factor\": %.4f, \"attempts\": %u, \"pages\": %llu, "
      "\"probes_per_lookup\": %zu, \"map_qps\": %.0f},\n"
      "      {\"kind\": \"fuse\", \"keys\": %llu, \"build_s\": %.3f, "
      "\"space_overhead\": %.4f, \"attempts\": %u, \"pages\": %llu, "
      "\"probes_per_lookup\": %zu, \"map_qps\": %.0f}\n    ]",
      (unsigned long long)g_build_keys, cuckoo.build_s,
      cuckoo.load_factor, cuckoo.attempts,
      (unsigned long long)cuckoo.num_pages, cuckoo.probes, cuckoo.map_qps,
      (unsigned long long)g_build_keys, fuse.build_s, fuse.space_overhead,
      fuse.attempts, (unsigned long long)fuse.num_pages, fuse.probes,
      fuse.map_qps);
  report.AddSection("builds", builds);

  char audit_json[320];
  std::snprintf(
      audit_json, sizeof(audit_json),
      "{\"lookups\": %llu, \"page_requests\": %llu, \"relocations\": "
      "%llu, \"analytic_c\": %.6f, \"measured_c\": %.6f, "
      "\"max_relative_deviation\": %.6f, \"slot_entropy\": %.6f, "
      "\"shape_uniform\": %s}",
      (unsigned long long)g_audit_lookups,
      (unsigned long long)audit.requests,
      (unsigned long long)audit.relocations, audit.analytic_c,
      audit.measured_c, audit.max_relative_deviation, audit.slot_entropy,
      e2e.shape_uniform == 1.0 ? "true" : "false");
  report.AddSection("privacy_audit", audit_json);

  if (report.WriteJson(path)) {
    std::printf("\nwrote %s\n", path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      g_build_keys = 50000;
      g_map_queries = 20000;
      g_e2e_queries = 120;
      g_audit_lookups = 1500;
    }
  }
  std::printf(
      "Keyword PIR front-end: %llu-key builds, %.0f%% hit Zipf(%.2f) "
      "workload, target c = %.1f.\n\n",
      (unsigned long long)g_build_keys, 100 * kHitRatio, kZipfExponent,
      kPrivacyC);

  std::printf("%-8s %10s %10s %8s %10s %8s %12s\n", "kind", "build s",
              "load/ovh", "attempts", "pages", "probes", "map q/s");
  const BuildRow cuckoo = RunCuckooBuild();
  std::printf("%-8s %10.3f %10.4f %8u %10llu %8zu %12.0f\n", cuckoo.name,
              cuckoo.build_s, cuckoo.load_factor, cuckoo.attempts,
              (unsigned long long)cuckoo.num_pages, cuckoo.probes,
              cuckoo.map_qps);
  const BuildRow fuse = RunFuseBuild();
  std::printf("%-8s %10.3f %10.4f %8u %10llu %8zu %12.0f\n", fuse.name,
              fuse.build_s, fuse.space_overhead, fuse.attempts,
              (unsigned long long)fuse.num_pages, fuse.probes,
              fuse.map_qps);

  KeywordRig e2e_rig = MakeKeywordRig(/*num_keys=*/400, /*seed=*/51);
  const E2eResult e2e = RunEndToEnd(e2e_rig);
  std::printf(
      "\nend-to-end (engine-backed, n = %llu pages): %.1f q/s, "
      "hit/miss shape uniform: %s\n",
      (unsigned long long)e2e_rig.store.map->num_pages(), e2e.qps,
      e2e.shape_uniform == 1.0 ? "yes" : "NO");

  KeywordRig audit_rig = MakeKeywordRig(/*num_keys=*/400, /*seed=*/52);
  const analysis::PrivacyReport audit = RunKeywordAudit(audit_rig);
  std::printf(
      "keyword-driven privacy audit: %llu page requests, analytic c = "
      "%.3f, measured c = %.3f, slot entropy = %.3f\n",
      (unsigned long long)audit.requests, audit.analytic_c,
      audit.measured_c, audit.slot_entropy);

  WriteJson("BENCH_keyword.json", cuckoo, fuse, e2e, audit);
  return 0;
}
