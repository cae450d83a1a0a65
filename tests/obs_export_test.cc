#include "obs/export.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/build_info.h"
#include "obs/metrics.h"

namespace shpir::obs {
namespace {

// --- Label-value escaping: the full escape set the Prometheus /
// --- OpenMetrics exposition formats define.

TEST(PrometheusEscaping, EscapesBackslashQuoteAndNewline) {
  EXPECT_EQ(EscapePrometheusLabelValue("plain"), "plain");
  EXPECT_EQ(EscapePrometheusLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapePrometheusLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(EscapePrometheusLabelValue("line1\nline2"), "line1\\nline2");
  // A hostile compiler string exercising all three at once.
  EXPECT_EQ(EscapePrometheusLabelValue("g++ -D'X=\"a\\b\n\"'"),
            "g++ -D'X=\\\"a\\\\b\\n\\\"'");
  EXPECT_EQ(EscapePrometheusLabelValue(""), "");
}

TEST(PrometheusEscaping, LeavesOtherControlAndUnicodeBytesAlone) {
  // The exposition format only defines the three escapes; everything
  // else passes through byte-for-byte (UTF-8 label values are legal).
  EXPECT_EQ(EscapePrometheusLabelValue("tab\there"), "tab\there");
  EXPECT_EQ(EscapePrometheusLabelValue("\xc3\xa9"), "\xc3\xa9");
}

// --- Info metrics: value-1 gauges with escaped labels in both formats.

TEST(InfoExport, PrometheusRendersInfoAsValueOneGaugeWithLabels) {
  MetricsSnapshot snapshot;
  SnapshotInfo info;
  info.name = "shpir_build_info";
  info.labels = {{"version", "0.8.0"}, {"compiler", "g++ \"13\"\n"}};
  snapshot.infos.push_back(info);
  const std::string text = ToPrometheusText(snapshot);
  EXPECT_NE(text.find("# TYPE shpir_build_info gauge\n"), std::string::npos)
      << text;
  EXPECT_NE(
      text.find("shpir_build_info{version=\"0.8.0\","
                "compiler=\"g++ \\\"13\\\"\\n\"} 1\n"),
      std::string::npos)
      << text;
}

TEST(InfoExport, BuildInfoPublishesOntoRegistryAndBothExporters) {
  MetricsRegistry registry;
  PublishBuildInfo(&registry);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.infos.size(), 1u);
  EXPECT_EQ(snapshot.infos[0].name, "shpir_build_info");
  bool has_version = false;
  bool has_sha = false;
  for (const auto& [key, value] : snapshot.infos[0].labels) {
    has_version |= key == "version" && !value.empty();
    has_sha |= key == "git_sha" && !value.empty();
  }
  EXPECT_TRUE(has_version);
  EXPECT_TRUE(has_sha);

  EXPECT_NE(ToPrometheusText(snapshot).find("shpir_build_info{"),
            std::string::npos);
  EXPECT_NE(ToJson(snapshot).find("\"name\":\"shpir_build_info\""),
            std::string::npos);
  // And the human one-liner has the same identity.
  EXPECT_EQ(BuildInfoSummary().rfind("shpir ", 0), 0u);
}

// --- Exemplars: OpenMetrics syntax on the _count sample, JSON key only
// --- when present, and lossless round-trip through the parser.

MetricsSnapshot SnapshotWithExemplar() {
  MetricsSnapshot snapshot;
  SnapshotHistogram h;
  h.name = "shpir_fanout_latency_ns";
  h.count = 3;
  h.sum = 600;
  h.min = 100;
  h.max = 400;
  h.p50 = 150;
  h.p95 = 390;
  h.p99 = 399;
  h.exemplars.push_back({/*value=*/120, /*trace_id=*/0xabcULL,
                         /*ts_ns=*/1500000000ULL});
  h.exemplars.push_back({/*value=*/400, /*trace_id=*/0xdeadbeefULL,
                         /*ts_ns=*/2750000000ULL});
  snapshot.histograms.push_back(std::move(h));
  return snapshot;
}

TEST(ExemplarExport, OpenMetricsSyntaxRidesTheCountSample) {
  const std::string text = ToPrometheusText(SnapshotWithExemplar());
  // The highest-value exemplar is attached; timestamp is in seconds.
  EXPECT_NE(text.find("shpir_fanout_latency_ns_count 3 "
                      "# {trace_id=\"00000000deadbeef\"} 400 2.750\n"),
            std::string::npos)
      << text;
}

TEST(ExemplarExport, NoExemplarsMeansPlainCountSample) {
  MetricsSnapshot snapshot = SnapshotWithExemplar();
  snapshot.histograms[0].exemplars.clear();
  const std::string text = ToPrometheusText(snapshot);
  EXPECT_NE(text.find("shpir_fanout_latency_ns_count 3\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find(" # {"), std::string::npos);
}

TEST(ExemplarExport, JsonRoundTripsExemplarsThroughTheParser) {
  const std::string json = ToJson(SnapshotWithExemplar());
  // Both exemplars, in order, with zero-padded 16-hex trace ids.
  EXPECT_NE(json.find("\"exemplars\":[{\"value\":120,"
                      "\"trace_id\":\"0000000000000abc\","
                      "\"ts_ns\":1500000000},"
                      "{\"value\":400,"
                      "\"trace_id\":\"00000000deadbeef\","
                      "\"ts_ns\":2750000000}]}"),
            std::string::npos)
      << json;
}

TEST(ExemplarExport, JsonOmitsTheKeyWhenThereAreNoExemplars) {
  MetricsSnapshot snapshot = SnapshotWithExemplar();
  snapshot.histograms[0].exemplars.clear();
  const std::string json = ToJson(snapshot);
  EXPECT_EQ(json.find("exemplars"), std::string::npos) << json;
  EXPECT_NE(json.find(",\"p99\":"), std::string::npos) << json;
  EXPECT_EQ(json.substr(json.size() - 3), "}]}") << json;
}

TEST(InfoExport, JsonRoundTripsInfosThroughTheParser) {
  MetricsSnapshot snapshot;
  SnapshotInfo info;
  info.name = "shpir_build_info";
  info.labels = {{"version", "0.8.0"}, {"flags", "-O2 \"x\""}};
  snapshot.infos.push_back(std::move(info));
  // Labels in registration order, values JSON-escaped.
  EXPECT_EQ(ToJson(snapshot),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[],"
            "\"infos\":[{\"name\":\"shpir_build_info\",\"labels\":"
            "{\"version\":\"0.8.0\",\"flags\":\"-O2 \\\"x\\\"\"}}]}");
}

// --- RecordWithExemplar: slot retention semantics on the live
// --- histogram, end to end through Snapshot().

TEST(HistogramExemplars, RetainsTracedObservationsPerBucketZone) {
  MetricsRegistry registry;
  Histogram* h = registry.FindOrCreateHistogram("shpir_latency_ns");
  h->Record(50);  // Untraced: never becomes an exemplar.
  h->RecordWithExemplar(10, /*trace_id=*/0x1ULL);
  // Same zone: overwrites the previous slot holder.
  h->RecordWithExemplar(12, /*trace_id=*/0x2ULL);
  // A far-outlier lands in a different slot and coexists.
  h->RecordWithExemplar(uint64_t{1} << 50, /*trace_id=*/0x3ULL);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const SnapshotHistogram& hs = snapshot.histograms[0];
  EXPECT_EQ(hs.count, 4u);
  ASSERT_EQ(hs.exemplars.size(), 2u);  // Ascending by value.
  EXPECT_EQ(hs.exemplars[0].value, 12u);
  EXPECT_EQ(hs.exemplars[0].trace_id, 0x2ULL);
  EXPECT_EQ(hs.exemplars[1].value, uint64_t{1} << 50);
  EXPECT_EQ(hs.exemplars[1].trace_id, 0x3ULL);
}

}  // namespace
}  // namespace shpir::obs
