#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/span.h"

// Global allocation counter for the zero-allocation tests. Counting
// operator new is process-wide, so the disabled-tracing tests measure a
// delta over a region that performs no other work.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace shpir::obs {
namespace {

TEST(Counter, ConcurrentIncrementsLandExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.FindOrCreateCounter("test_events_total");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(Counter, FindOrCreateReturnsSameInstance) {
  MetricsRegistry registry;
  Counter* a = registry.FindOrCreateCounter("test_total");
  Counter* b = registry.FindOrCreateCounter("test_total");
  EXPECT_EQ(a, b);
  a->Increment(5);
  EXPECT_EQ(b->Value(), 5u);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry registry;
  Gauge* gauge = registry.FindOrCreateGauge("test_level");
  EXPECT_EQ(gauge->Value(), 0.0);
  gauge->Set(2.5);
  EXPECT_EQ(gauge->Value(), 2.5);
  gauge->Add(1.25);
  EXPECT_EQ(gauge->Value(), 3.75);
  gauge->Add(-4.0);
  EXPECT_EQ(gauge->Value(), -0.25);
}

TEST(Gauge, ConcurrentAddsLandExactly) {
  MetricsRegistry registry;
  Gauge* gauge = registry.FindOrCreateGauge("test_level");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([gauge] {
      for (int i = 0; i < kPerThread; ++i) {
        gauge->Add(1.0);  // Integers below 2^53 add exactly in double.
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(gauge->Value(), static_cast<double>(kThreads * kPerThread));
}

TEST(Histogram, BucketGeometry) {
  // Linear range: exact buckets.
  for (uint64_t v = 0; v < 16; ++v) {
    const int index = Histogram::BucketIndex(v);
    EXPECT_EQ(index, static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketLowerBound(index), v);
  }
  // Every bucket contains its own bounds, buckets tile the value space.
  for (int index = 0; index < Histogram::kNumBuckets; ++index) {
    const uint64_t lower = Histogram::BucketLowerBound(index);
    EXPECT_EQ(Histogram::BucketIndex(lower), index) << "lower of " << index;
    const uint64_t upper = Histogram::BucketUpperBound(index);
    if (upper != UINT64_MAX) {
      EXPECT_EQ(Histogram::BucketIndex(upper + 1), index + 1)
          << "upper of " << index;
    }
    EXPECT_GE(upper, lower);
  }
  // Relative bucket width stays within the documented 25%.
  for (uint64_t v : {17ull, 100ull, 12345ull, 999999ull, 1ull << 40}) {
    const int index = Histogram::BucketIndex(v);
    const uint64_t lower = Histogram::BucketLowerBound(index);
    const uint64_t upper = Histogram::BucketUpperBound(index);
    EXPECT_LE(lower, v);
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - lower),
              0.25 * static_cast<double>(lower) + 1.0);
  }
}

TEST(Histogram, CountSumMinMax) {
  MetricsRegistry registry;
  Histogram* histogram = registry.FindOrCreateHistogram("test_latency_ns");
  EXPECT_EQ(histogram->Count(), 0u);
  EXPECT_EQ(histogram->Min(), 0u);
  EXPECT_EQ(histogram->Max(), 0u);
  histogram->Record(10);
  histogram->Record(500);
  histogram->Record(3);
  EXPECT_EQ(histogram->Count(), 3u);
  EXPECT_EQ(histogram->Sum(), 513u);
  EXPECT_EQ(histogram->Min(), 3u);
  EXPECT_EQ(histogram->Max(), 500u);
}

TEST(Histogram, QuantileWithinOneBucketOfExact) {
  MetricsRegistry registry;
  Histogram* histogram = registry.FindOrCreateHistogram("test_latency_ns");
  // Deterministic pseudo-uniform values over [1, 100000].
  std::vector<uint64_t> values;
  uint64_t state = 12345;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    values.push_back(1 + (state >> 33) % 100000);
  }
  for (uint64_t v : values) {
    histogram->Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.95, 0.99}) {
    const uint64_t exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    const double estimate = histogram->Quantile(q);
    // The estimate must fall inside (or adjacent to) the exact value's
    // bucket: within one bucket width, i.e. <= 25% relative error plus
    // the one-unit linear slack.
    const double tolerance = 0.25 * static_cast<double>(exact) + 1.0;
    EXPECT_NEAR(estimate, static_cast<double>(exact), tolerance)
        << "q=" << q;
  }
}

TEST(Histogram, QuantileOfEmptyHistogramIsZero) {
  MetricsRegistry registry;
  Histogram* histogram = registry.FindOrCreateHistogram("test_latency_ns");
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(histogram->Quantile(q), 0.0) << "q=" << q;
  }
}

TEST(Histogram, QuantileOfSingleSampleIsExact) {
  // With one sample the [Min, Max] clamp collapses the bucket midpoint
  // to the recorded value, for every q — including one far into the
  // exponential range where the raw midpoint would be off by ~12%.
  for (uint64_t value : {0ull, 5ull, 37ull, 1000000ull}) {
    MetricsRegistry registry;
    Histogram* histogram = registry.FindOrCreateHistogram("test_latency_ns");
    histogram->Record(value);
    for (double q : {0.0, 0.5, 1.0}) {
      EXPECT_EQ(histogram->Quantile(q), static_cast<double>(value))
          << "value=" << value << " q=" << q;
    }
  }
}

TEST(Histogram, QuantileAtBucketEdges) {
  MetricsRegistry registry;
  Histogram* histogram = registry.FindOrCreateHistogram("test_latency_ns");
  // 15 is the last exact linear bucket; 16 starts the exponential
  // range (bucket [16, 19]). The estimate for each must stay inside
  // the recorded value's own bucket.
  for (int i = 0; i < 100; ++i) {
    histogram->Record(15);
  }
  EXPECT_EQ(histogram->Quantile(0.5), 15.0);
  for (int i = 0; i < 300; ++i) {
    histogram->Record(16);
  }
  // Median now falls in the [16, 19] bucket; the midpoint 17.5 is
  // within the documented one-bucket error of the exact value 16.
  const double median = histogram->Quantile(0.5);
  EXPECT_GE(median, 16.0);
  EXPECT_LE(median, 19.0);
}

TEST(Histogram, QuantileExtremesReturnMinAndMax) {
  MetricsRegistry registry;
  Histogram* histogram = registry.FindOrCreateHistogram("test_latency_ns");
  // Values in the linear range have exact single-value buckets, so the
  // extremes are exact, and out-of-range q must clamp, not crash.
  histogram->Record(10);
  histogram->Record(12);
  EXPECT_EQ(histogram->Quantile(0.0), 10.0);
  EXPECT_EQ(histogram->Quantile(1.0), 12.0);
  EXPECT_EQ(histogram->Quantile(-1.0), 10.0);
  EXPECT_EQ(histogram->Quantile(2.0), 12.0);
}

TEST(Histogram, ConcurrentRecordsLandExactly) {
  MetricsRegistry registry;
  Histogram* histogram = registry.FindOrCreateHistogram("test_latency_ns");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram->Record(static_cast<uint64_t>(t) * 1000 + i % 100);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(histogram->Count(), kThreads * kPerThread);
}

TEST(Registry, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter("zeta_total")->Increment(3);
  registry.FindOrCreateCounter("alpha_total")->Increment(1);
  registry.FindOrCreateGauge("beta_level")->Set(1.5);
  registry.FindOrCreateHistogram("gamma_ns")->Record(42);
  registry.RegisterCallbackGauge("delta_level", [] { return 7.0; });
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha_total");
  EXPECT_EQ(snapshot.counters[0].value, 1u);
  EXPECT_EQ(snapshot.counters[1].name, "zeta_total");
  EXPECT_EQ(snapshot.counters[1].value, 3u);
  ASSERT_EQ(snapshot.gauges.size(), 2u);
  EXPECT_EQ(snapshot.gauges[0].name, "beta_level");
  EXPECT_EQ(snapshot.gauges[1].name, "delta_level");
  EXPECT_EQ(snapshot.gauges[1].value, 7.0);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].name, "gamma_ns");
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
  EXPECT_EQ(snapshot.histograms[0].sum, 42u);
}

TEST(Registry, ConcurrentFindOrCreateIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::array<Counter*, kThreads> seen = {};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      for (int i = 0; i < 1000; ++i) {
        seen[static_cast<size_t>(t)] =
            registry.FindOrCreateCounter("shared_total");
        seen[static_cast<size_t>(t)]->Increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  EXPECT_EQ(seen[0]->Value(), 8000u);
}

TEST(Registry, IsValidName) {
  EXPECT_TRUE(MetricsRegistry::IsValidName("shpir_engine_queries_total"));
  EXPECT_TRUE(MetricsRegistry::IsValidName("a"));
  EXPECT_TRUE(MetricsRegistry::IsValidName("x1_y2"));
  EXPECT_FALSE(MetricsRegistry::IsValidName(""));
  EXPECT_FALSE(MetricsRegistry::IsValidName("1abc"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("_abc"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("Upper"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("has-dash"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("has space"));
  // Per-request identifier vocabulary is structurally banned: a metric
  // named after a page id or request index would be a side channel.
  EXPECT_FALSE(MetricsRegistry::IsValidName("shpir_page_id_7"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("request_index_total"));
  EXPECT_FALSE(MetricsRegistry::IsValidName("per_client_id_bytes"));
  EXPECT_FALSE(MetricsRegistry::IsValidName(std::string(200, 'a')));
}

TEST(Export, PrometheusTextRoundTripsAParseCheck) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter("shpir_test_events_total")->Increment(12);
  registry.FindOrCreateGauge("shpir_test_level")->Set(0.5);
  Histogram* histogram =
      registry.FindOrCreateHistogram("shpir_test_latency_ns");
  for (uint64_t v = 1; v <= 100; ++v) {
    histogram->Record(v);
  }
  const std::string text = ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE shpir_test_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("shpir_test_events_total 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE shpir_test_level gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE shpir_test_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("shpir_test_latency_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("shpir_test_latency_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("shpir_test_latency_ns_sum 5050"), std::string::npos);
  EXPECT_NE(text.find("shpir_test_latency_ns_count 100"),
            std::string::npos);
  // Structural parse check: every non-comment line is `name[{labels}]
  // value` with a numeric value.
  size_t pos = 0;
  int samples = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << "non-numeric sample value: " << line;
    ++samples;
  }
  EXPECT_EQ(samples, 2 + 5);  // counter + gauge + 3 quantiles + sum + count.
}

TEST(Export, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter("shpir_test_events_total")->Increment(7);
  registry.FindOrCreateGauge("shpir_test_ratio")->Set(0.125);
  Histogram* histogram =
      registry.FindOrCreateHistogram("shpir_test_latency_ns");
  histogram->Record(100);
  histogram->Record(200);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const std::string json = ToJson(snapshot);
  // The closed schema, field by field, with the registry's values.
  const std::string prefix =
      "{\"counters\":[{\"name\":\"shpir_test_events_total\",\"value\":7}],"
      "\"gauges\":[{\"name\":\"shpir_test_ratio\",\"value\":0.125}],"
      "\"histograms\":[{\"name\":\"shpir_test_latency_ns\",\"count\":2,"
      "\"sum\":300,\"min\":100,\"max\":200,\"p50\":";
  EXPECT_EQ(json.rfind(prefix, 0), 0u) << json;
  EXPECT_EQ(json.substr(json.size() - 3), "}]}") << json;
  EXPECT_EQ(json.find("exemplars"), std::string::npos);
  EXPECT_EQ(json.find("infos"), std::string::npos);
  // The same snapshot renders the same bytes.
  EXPECT_EQ(ToJson(registry.Snapshot()), json);
}

TEST(Export, RenderTableMentionsEveryMetric) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter("shpir_test_events_total")->Increment(3);
  registry.FindOrCreateGauge("shpir_test_level")->Set(9.0);
  registry.FindOrCreateHistogram("shpir_test_latency_ns")->Record(5);
  const std::string table = RenderTable(registry.Snapshot());
  EXPECT_NE(table.find("shpir_test_events_total"), std::string::npos);
  EXPECT_NE(table.find("shpir_test_level"), std::string::npos);
  EXPECT_NE(table.find("shpir_test_latency_ns"), std::string::npos);
}

TEST(Span, DisabledTraceMakesZeroAllocations) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    QueryTrace trace(nullptr);
    Span a(trace, Phase::kBlockRead);
    Span b(trace, Phase::kDecrypt);
    ScopedLatencyTimer timer(nullptr);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

TEST(Span, EnabledTraceMakesZeroAllocationsPerQuery) {
  MetricsRegistry registry;
  PhaseHistograms phases{};
  for (int i = 0; i < kNumPhases; ++i) {
    phases[static_cast<size_t>(i)] = registry.FindOrCreateHistogram(
        std::string("phase_") + PhaseName(static_cast<Phase>(i)) + "_ns");
  }
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    QueryTrace trace(&phases);
    Span a(trace, Phase::kBlockRead);
    Span b(trace, Phase::kReencrypt);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

TEST(Span, AggregatesPhaseTimeIntoHistograms) {
  MetricsRegistry registry;
  PhaseHistograms phases{};
  phases[static_cast<size_t>(Phase::kDecrypt)] =
      registry.FindOrCreateHistogram("phase_decrypt_ns");
  {
    QueryTrace trace(&phases);
    trace.Add(Phase::kDecrypt, 100);
    trace.Add(Phase::kDecrypt, 50);
    trace.Add(Phase::kBlockRead, 999);  // No histogram: dropped silently.
  }
  Histogram* decrypt = registry.FindOrCreateHistogram("phase_decrypt_ns");
  EXPECT_EQ(decrypt->Count(), 1u);  // One aggregated sample per query.
  EXPECT_EQ(decrypt->Sum(), 150u);
}

TEST(Span, PhaseNamesAreStable) {
  EXPECT_STREQ(PhaseName(Phase::kPageMapLookup), "pagemap");
  EXPECT_STREQ(PhaseName(Phase::kBlockRead), "block_read");
  EXPECT_STREQ(PhaseName(Phase::kDecrypt), "decrypt");
  EXPECT_STREQ(PhaseName(Phase::kCacheEvict), "evict");
  EXPECT_STREQ(PhaseName(Phase::kReencrypt), "reencrypt");
  EXPECT_STREQ(PhaseName(Phase::kWriteBack), "writeback");
}

}  // namespace
}  // namespace shpir::obs
