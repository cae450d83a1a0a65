#include "obs/flight_recorder.h"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace shpir::obs {
namespace {

FlightRecorder::Options FastOptions() {
  FlightRecorder::Options options;
  options.min_interval_ns = 0;  // No debounce: tests control timing.
  return options;
}

TEST(FlightRecorder, EdgeTriggerSealsOnCounterIncrease) {
  FlightRecorder recorder(FastOptions());
  uint64_t breaches = 0;
  recorder.AddTrigger("privacy_breach", [&breaches] { return breaches; });

  // Steady counter: polls are free.
  EXPECT_EQ(recorder.Poll(), 0u);
  EXPECT_EQ(recorder.Poll(), 0u);
  EXPECT_EQ(recorder.sealed(), 0u);

  breaches = 3;
  EXPECT_EQ(recorder.Poll(), 1u);
  EXPECT_EQ(recorder.sealed(), 1u);
  // No new edge: the counter was latched at 3.
  EXPECT_EQ(recorder.Poll(), 0u);

  const std::vector<FlightRecorder::Incident> incidents = recorder.List();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].reason, "privacy_breach");
  EXPECT_EQ(incidents[0].trigger_value, 3u);
  EXPECT_GT(incidents[0].id, 0u);
  EXPECT_EQ(recorder.polls(), 4u);
}

TEST(FlightRecorder, AtMostOneSealPerPollWhenTwoTriggersEdge) {
  FlightRecorder recorder(FastOptions());
  uint64_t a = 0;
  uint64_t b = 0;
  recorder.AddTrigger("slo_burn_alert", [&a] { return a; });
  recorder.AddTrigger("dispatcher_overload", [&b] { return b; });

  a = 1;
  b = 1;
  EXPECT_EQ(recorder.Poll(), 1u);
  // Both edges were consumed in that poll: nothing left to fire.
  EXPECT_EQ(recorder.Poll(), 0u);
  EXPECT_EQ(recorder.sealed(), 1u);
  EXPECT_EQ(recorder.List().front().reason, "slo_burn_alert");
}

TEST(FlightRecorder, DebounceWindowCountsEdgeButSealsNothing) {
  FlightRecorder::Options options;
  options.min_interval_ns = 3600ULL * 1000000000ULL;  // 1h: never elapses.
  FlightRecorder recorder(options);
  uint64_t overloads = 0;
  recorder.AddTrigger("dispatcher_overload",
                      [&overloads] { return overloads; });

  // First seal passes: nothing has been sealed yet.
  overloads = 1;
  EXPECT_EQ(recorder.Poll(), 1u);
  // Second edge lands inside the window: debounced, not sealed.
  overloads = 2;
  EXPECT_EQ(recorder.Poll(), 0u);
  EXPECT_EQ(recorder.sealed(), 1u);
  EXPECT_EQ(recorder.debounced(), 1u);

  // A window longer than any uptime: the first edge still seals, so the
  // debounce cannot depend on how long ago the steady clock started.
  options.min_interval_ns = UINT64_MAX;
  FlightRecorder fresh(options);
  fresh.AddTrigger("dispatcher_overload", [&overloads] { return overloads; });
  overloads = 3;
  EXPECT_EQ(fresh.Poll(), 1u);
  EXPECT_EQ(fresh.sealed(), 1u);
  EXPECT_EQ(fresh.debounced(), 0u);
  overloads = 4;
  EXPECT_EQ(fresh.Poll(), 0u);
  EXPECT_EQ(fresh.debounced(), 1u);
}

TEST(FlightRecorder, ManualTriggerIgnoresDebounce) {
  FlightRecorder::Options options;
  options.min_interval_ns = 3600ULL * 1000000000ULL;
  FlightRecorder recorder(options);
  const uint64_t first = recorder.Trigger("manual");
  const uint64_t second = recorder.Trigger("manual");
  EXPECT_EQ(recorder.sealed(), 2u);
  EXPECT_EQ(recorder.debounced(), 0u);
  EXPECT_LT(first, second);
}

TEST(FlightRecorder, BoundedStoreEvictsOldestIncidents) {
  FlightRecorder::Options options;
  options.min_interval_ns = 0;
  options.max_incidents = 2;
  FlightRecorder recorder(options);
  for (int i = 0; i < 5; ++i) {
    recorder.Trigger("manual");
  }
  EXPECT_EQ(recorder.sealed(), 5u);
  const std::vector<FlightRecorder::Incident> incidents = recorder.List();
  ASSERT_EQ(incidents.size(), 2u);
  // Oldest first; ids 1..3 were evicted.
  EXPECT_EQ(incidents[0].id, 4u);
  EXPECT_EQ(incidents[1].id, 5u);
  // Evicted bundles are gone from show mode too.
  EXPECT_EQ(recorder.ShowJson(1), "");
  EXPECT_NE(recorder.ShowJson(5), "");
}

TEST(FlightRecorder, ListJsonCarriesCountersAndSummaries) {
  FlightRecorder recorder(FastOptions());
  recorder.Trigger("manual");
  const std::string json = recorder.ListJson();
  EXPECT_NE(json.find("\"sealed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"debounced\":0"), std::string::npos);
  EXPECT_NE(json.find("\"incidents\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"id\":1"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"manual\""), std::string::npos);
  EXPECT_NE(json.find("\"trigger_value\":0"), std::string::npos);
  // Summaries only: the heavy bundle payloads stay out of list mode.
  EXPECT_EQ(json.find("\"events\""), std::string::npos);
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
}

TEST(FlightRecorder, ShowJsonRendersTheFullBundle) {
  FlightRecorder recorder(FastOptions());
  recorder.SetConfigFingerprint("shards=4 pages=1024 k=16 c=2.00");
  const uint64_t id = recorder.Trigger("manual");
  const std::string json = recorder.ShowJson(id);
  EXPECT_NE(json.find("\"id\":" + std::to_string(id)), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"reason\":\"manual\""), std::string::npos);
  EXPECT_NE(json.find("\"config\":\"shards=4 pages=1024 k=16 c=2.00\""),
            std::string::npos);
  EXPECT_NE(json.find("\"shape\":\"reason:manual"), std::string::npos);
  // Unattached surfaces render as empty objects, not absent keys.
  EXPECT_NE(json.find("\"events\":{}"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":{}"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{}"), std::string::npos);
  // Unknown id: empty string, the wire layer maps it to NotFound.
  EXPECT_EQ(recorder.ShowJson(id + 100), "");
}

TEST(FlightRecorder, AttachedSurfacesAreCapturedInTheBundle) {
  EventLog::Options log_options;
  log_options.min_level = EventLevel::kDebug;
  EventLog log(log_options);
  log.Emit(EventLevel::kWarn, "queue_full", {{"depth", 32}});

  MetricsRegistry metrics;
  metrics.FindOrCreateCounter("shpir_test_requests_total")->Increment();

  Tracer::Options trace_options;
  trace_options.sample_every = 1;
  Tracer tracer(trace_options);
  {
    TraceSpan span(&tracer, "fanout");
  }

  FlightRecorder recorder(FastOptions());
  recorder.AttachEventLog(&log);
  recorder.AttachMetrics(&metrics);
  recorder.AttachTracer(&tracer);
  const uint64_t id = recorder.Trigger("manual");
  const std::string json = recorder.ShowJson(id);

  EXPECT_NE(json.find("queue_full"), std::string::npos) << json;
  EXPECT_NE(json.find("shpir_test_requests_total"), std::string::npos);
  EXPECT_NE(json.find("fanout"), std::string::npos);

  const std::vector<FlightRecorder::Incident> incidents = recorder.List();
  ASSERT_EQ(incidents.size(), 1u);
  const std::string& shape = incidents[0].shape;
  // The digest lists names only — never values or timings.
  EXPECT_NE(shape.find("warn:queue_full"), std::string::npos) << shape;
  EXPECT_NE(shape.find("span:fanout"), std::string::npos);
  EXPECT_NE(shape.find("metric:shpir_test_requests_total"),
            std::string::npos);
  EXPECT_EQ(shape.find("32"), std::string::npos);
}

TEST(FlightRecorder, SpillWritesOneJsonFilePerIncident) {
  const std::string dir =
      testing::TempDir() + "/shpir_flight_recorder_spill";
  std::filesystem::remove_all(dir);
  FlightRecorder::Options options;
  options.min_interval_ns = 0;
  options.spill_dir = dir;
  FlightRecorder recorder(options);
  recorder.SetConfigFingerprint("pages=64");
  const uint64_t id = recorder.Trigger("manual");

  const std::string path = dir + "/incident_" + std::to_string(id) + ".json";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  EXPECT_EQ(contents, recorder.ShowJson(id));
  EXPECT_NE(contents.find("\"config\":\"pages=64\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, SpillDirFallsBackToEnvironmentVariable) {
  const std::string dir = testing::TempDir() + "/shpir_incident_env";
  std::filesystem::remove_all(dir);
  ASSERT_EQ(setenv("SHPIR_INCIDENT_DIR", dir.c_str(), /*overwrite=*/1), 0);
  FlightRecorder::Options options;
  options.min_interval_ns = 0;
  FlightRecorder recorder(options);
  ASSERT_EQ(unsetenv("SHPIR_INCIDENT_DIR"), 0);
  EXPECT_EQ(recorder.options().spill_dir, dir);

  const uint64_t id = recorder.Trigger("manual");
  EXPECT_TRUE(std::filesystem::exists(dir + "/incident_" +
                                      std::to_string(id) + ".json"));
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, PublishMetricsExportsSealAndDebounceCounters) {
  MetricsRegistry registry;
  FlightRecorder recorder(FastOptions());
  recorder.PublishMetrics(&registry);
  recorder.Trigger("manual");
  recorder.Poll();
  const MetricsSnapshot snapshot = registry.Snapshot();
  double sealed = -1;
  double polls = -1;
  double stored = -1;
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name == "shpir_incident_sealed_total") {
      sealed = gauge.value;
    }
    if (gauge.name == "shpir_incident_polls_total") {
      polls = gauge.value;
    }
    if (gauge.name == "shpir_incident_stored") {
      stored = gauge.value;
    }
  }
  EXPECT_EQ(sealed, 1.0);
  EXPECT_EQ(polls, 1.0);
  EXPECT_EQ(stored, 1.0);
}

}  // namespace
}  // namespace shpir::obs
