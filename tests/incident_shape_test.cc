// The paired-rig shape proof for the incident-observability layer: two
// identical serving rigs that differ ONLY in which page the client
// actually wants must emit byte-identical event shapes and
// shape-identical incident bundles. This is the observable form of the
// trust-boundary rule in docs/OBSERVABILITY.md — if any surface let the
// secret target leak into an event name, field set, or bundle digest,
// these comparisons would break.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "crypto/secure_random.h"
#include "net/pir_service.h"
#include "net/service_hub.h"
#include "net/wire.h"
#include "obs/admin.h"
#include "obs/eventlog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"

namespace shpir::obs {
namespace {

constexpr uint64_t kPages = 64;

/// One fully instrumented serving rig. Everything about its
/// construction is deterministic and identical across instances; only
/// the queries driven through it differ.
struct Rig {
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<EventLog> log;
  std::unique_ptr<FlightRecorder> recorder;
  std::unique_ptr<shard::ShardedPirEngine> engine;

  static Rig Make() {
    Rig rig;
    rig.metrics = std::make_unique<MetricsRegistry>();

    EventLog::Options log_options;
    log_options.min_level = EventLevel::kDebug;
    rig.log = std::make_unique<EventLog>(log_options);

    FlightRecorder::Options rec_options;
    rec_options.min_interval_ns = 0;
    rig.recorder = std::make_unique<FlightRecorder>(rec_options);
    rig.recorder->AttachEventLog(rig.log.get());
    rig.recorder->AttachMetrics(rig.metrics.get());

    shard::ShardedPirEngine::Options options;
    options.num_pages = kPages;
    options.page_size = 32;
    options.cache_pages = 8;
    options.privacy_c = 2.0;
    options.shards = 2;
    options.queue_depth = 64;
    options.seed = 11;
    auto engine = shard::ShardedPirEngine::Create(options);
    SHPIR_CHECK(engine.ok());
    rig.engine = std::move(engine).value();
    SHPIR_CHECK_OK(rig.engine->Initialize({}));
    rig.engine->EnableMetrics(rig.metrics.get());
    rig.engine->EnableEventLog(rig.log.get());
    rig.engine->EnableFlightRecorder(rig.recorder.get());
    return rig;
  }

  void Drive(const std::vector<storage::PageId>& targets) {
    for (const storage::PageId id : targets) {
      SHPIR_CHECK_OK(engine->Retrieve(id).status());
    }
    engine->WaitIdle();
  }
};

TEST(IncidentShape, PairedRigsEmitIdenticalEventShapes) {
  Rig a = Rig::Make();
  Rig b = Rig::Make();
  // Same number of logical queries; disjoint secret targets that even
  // live on different shards (low vs high halves of the id space).
  a.Drive({0, 1, 2, 3, 4, 5, 6, 7});
  b.Drive({63, 62, 61, 60, 59, 58, 57, 56});

  const std::string shape_a = EventShape(a.log->Snapshot());
  const std::string shape_b = EventShape(b.log->Snapshot());
  EXPECT_FALSE(shape_a.empty());
  EXPECT_EQ(shape_a, shape_b);
  // The logs really did record the runtime's events, not nothing.
  EXPECT_NE(shape_a.find("fanout_complete"), std::string::npos) << shape_a;
  EXPECT_NE(shape_a.find("shard_runtime_started"), std::string::npos);
  // And the aggregate counters agree too: same traffic, same recording.
  EXPECT_EQ(a.log->recorded(), b.log->recorded());
  EXPECT_EQ(a.log->emitted(), b.log->emitted());
}

TEST(IncidentShape, PairedRigsSealShapeIdenticalBundles) {
  Rig a = Rig::Make();
  Rig b = Rig::Make();
  a.Drive({3, 9, 27});
  b.Drive({40, 50, 60});

  const uint64_t id_a = a.recorder->Trigger("manual");
  const uint64_t id_b = b.recorder->Trigger("manual");
  const std::vector<FlightRecorder::Incident> inc_a = a.recorder->List();
  const std::vector<FlightRecorder::Incident> inc_b = b.recorder->List();
  ASSERT_EQ(inc_a.size(), 1u);
  ASSERT_EQ(inc_b.size(), 1u);

  // The digest covers the event shapes and the metric-name vocabulary;
  // it must not see which pages were asked for.
  EXPECT_EQ(inc_a[0].shape, inc_b[0].shape);
  EXPECT_NE(inc_a[0].shape.find("reason:manual"), std::string::npos);
  EXPECT_NE(inc_a[0].shape.find("metric:shpir_shard_logical_queries_total"),
            std::string::npos)
      << inc_a[0].shape;

  // Public config fingerprints are equal (same plan, same build).
  EXPECT_EQ(inc_a[0].config_fingerprint, inc_b[0].config_fingerprint);
  EXPECT_EQ(a.engine->ConfigFingerprint(), b.engine->ConfigFingerprint());
  EXPECT_NE(a.recorder->ShowJson(id_a), "");
  EXPECT_NE(b.recorder->ShowJson(id_b), "");
}

TEST(IncidentShape, HealthJsonIsTargetIndependentAndTracksDraining) {
  Rig a = Rig::Make();
  Rig b = Rig::Make();
  a.Drive({1});
  b.Drive({62});

  const std::string health_a = a.engine->HealthJson();
  EXPECT_NE(health_a.find("\"ready\":true"), std::string::npos) << health_a;
  EXPECT_NE(health_a.find("\"role\":\"shard\""), std::string::npos);
  EXPECT_NE(health_a.find("\"dispatcher\":{"), std::string::npos);
  // Byte-identical across secret targets: the whole document is
  // aggregate state and public configuration.
  EXPECT_EQ(health_a, b.engine->HealthJson());

  a.engine->Drain();
  const std::string drained = a.engine->HealthJson();
  EXPECT_NE(drained.find("\"ready\":false"), std::string::npos) << drained;
}

// --- Wire coverage: the documents' ADMIN requests round-trip the
// --- storage envelope and are served end to end through the hub.

TEST(IncidentShape, NewStorageOpsRoundTripTheWire) {
  for (const auto& [name, arg] :
       std::vector<std::pair<std::string, std::string>>{
           {"events", ""}, {"incidents", "7"}, {"health", ""}}) {
    net::Request request;
    request.op = net::Op::kAdmin;
    request.payload = net::EncodeAdminRequest(name, arg);
    const Result<net::Request> back =
        net::DecodeRequest(net::EncodeRequest(request));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->op, net::Op::kAdmin);
    const Result<net::AdminRequest> admin =
        net::DecodeAdminRequest(back->payload);
    ASSERT_TRUE(admin.ok()) << admin.status();
    EXPECT_EQ(admin->name, name);
    EXPECT_EQ(admin->arg, arg);
  }
}

TEST(IncidentShape, HubServesEventIncidentAndHealthOps) {
  Rig rig = Rig::Make();
  rig.Drive({5});

  const Bytes psk{'t', 'e', 's', 't'};
  shard::ShardedPirEngine* engine = rig.engine.get();
  AdminSources sources;
  sources.eventlog = rig.log.get();
  sources.recorder = rig.recorder.get();
  sources.health = [engine] { return engine->HealthJson(); };
  AdminRegistry admin;
  RegisterStandardDocuments(sources, &admin);
  net::ServiceHub hub(rig.engine.get(), psk, /*rng_seed=*/3,
                      /*metrics=*/nullptr, /*tracer=*/nullptr, &admin);

  // Handshake, as any tool client would.
  const uint64_t client_id = 5;
  crypto::SecureRandom rng(17);
  Bytes nonce(net::SecureSession::kNonceSize);
  rng.Fill(nonce);
  Result<Bytes> reply =
      hub.HandleFrame(net::ServiceHub::MakeHello(client_id, nonce));
  ASSERT_TRUE(reply.ok()) << reply.status();
  Result<net::SecureSession> session =
      net::ServiceHub::CompleteHandshake(*reply, psk, client_id, nonce);
  ASSERT_TRUE(session.ok()) << session.status();
  net::PirServiceClient client(
      std::move(session).value(), [&hub, client_id](ByteSpan record) {
        return hub.HandleFrame(net::ServiceHub::MakeData(client_id, record));
      });

  const Result<std::string> events = client.Admin("events");
  ASSERT_TRUE(events.ok()) << events.status();
  EXPECT_NE(events->find("\"events\":["), std::string::npos);
  EXPECT_NE(events->find("fanout_complete"), std::string::npos);

  // No incidents yet: list is empty, show is NotFound.
  Result<std::string> list = client.Admin("incidents");
  ASSERT_TRUE(list.ok()) << list.status();
  EXPECT_NE(list->find("\"sealed\":0"), std::string::npos);
  EXPECT_FALSE(client.Admin("incidents", "1").ok());

  const uint64_t incident_id = rig.recorder->Trigger("manual");
  list = client.Admin("incidents");
  ASSERT_TRUE(list.ok());
  EXPECT_NE(list->find("\"sealed\":1"), std::string::npos);
  const Result<std::string> bundle =
      client.Admin("incidents", std::to_string(incident_id));
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_NE(bundle->find("\"reason\":\"manual\""), std::string::npos);
  EXPECT_NE(bundle->find("\"shape\":\"reason:manual"), std::string::npos);

  const Result<std::string> health = client.Admin("health");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_NE(health->find("\"ready\":true"), std::string::npos);
}

}  // namespace
}  // namespace shpir::obs
