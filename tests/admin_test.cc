// One admin path: an AdminRegistry served through the ADMIN op of both
// wire protocols. Every document must arrive byte-identical to what its
// builder renders directly, every malformed request must fail before a
// handler runs, and the per-document op codes the ADMIN op replaced
// must stay retired on both protocols.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "control/controller.h"
#include "crypto/secure_random.h"
#include "net/pir_service.h"
#include "net/remote_disk.h"
#include "net/service_hub.h"
#include "net/storage_server.h"
#include "net/wire.h"
#include "obs/admin.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "shard/sharded_engine.h"
#include "storage/disk.h"

namespace shpir {
namespace {

// --- The registry's own rules ----------------------------------------

TEST(AdminRegistry, StandardDocumentsRejectMalformedArguments) {
  obs::Tracer tracer;
  obs::Profiler profiler;
  obs::FlightRecorder recorder;
  obs::AdminSources sources;
  sources.tracer = &tracer;
  sources.profiler = &profiler;
  sources.recorder = &recorder;
  obs::AdminRegistry registry;
  obs::RegisterStandardDocuments(sources, &registry);

  for (const char* bad : {"0", "xyz", "0x", "12345678901234567", "-1"}) {
    EXPECT_FALSE(registry.Render("trace", bad).ok()) << bad;
  }
  EXPECT_TRUE(registry.Render("trace", "0xAB").ok());
  EXPECT_FALSE(registry.Render("profile", "flame").ok());
  EXPECT_FALSE(registry.Render("incidents", "7a").ok());
  EXPECT_FALSE(registry.Render("incidents", "-7").ok());
  // A malformed id is rejected before the recorder polls its triggers.
  EXPECT_EQ(recorder.polls(), 0u);
  // Sources that are absent register nothing; unknown names are
  // NotFound.
  EXPECT_EQ(registry.Render("stats", "").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Render("health", "").status().code(),
            StatusCode::kNotFound);
}

// --- A fully instrumented hub whose registry both protocols serve ------

struct AdminRig {
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::Profiler> profiler;
  std::unique_ptr<obs::EventLog> log;
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<shard::ShardedPirEngine> engine;
  std::unique_ptr<control::ShardedEnginePlant> plant;
  std::unique_ptr<control::PrivacyCostController> controller;
  // The "stats" source. Nothing records into it, and neither endpoint
  // below meters itself, so it holds still while it is served.
  obs::MetricsRegistry metrics;
  obs::AdminRegistry admin;
  int probes = 0;  // Calls of the "probe" document's handler.

  std::unique_ptr<storage::MemoryDisk> disk;
  std::unique_ptr<net::StorageServer> provider;
  std::unique_ptr<net::DirectTransport> storage_link;
  std::unique_ptr<net::ServiceHub> hub;
  Bytes psk{'a', 'd', 'm', 'i', 'n'};

  static std::unique_ptr<AdminRig> Make() {
    auto rig = std::make_unique<AdminRig>();
    obs::Tracer::Options trace_options;
    trace_options.sample_every = 1;
    trace_options.seed = 5;
    rig->tracer = std::make_unique<obs::Tracer>(trace_options);
    obs::Profiler::Options profile_options;
    profile_options.sample_every = 1;
    rig->profiler = std::make_unique<obs::Profiler>(profile_options);
    rig->log = std::make_unique<obs::EventLog>();
    obs::FlightRecorder::Options recorder_options;
    recorder_options.min_interval_ns = 0;
    rig->recorder = std::make_unique<obs::FlightRecorder>(recorder_options);
    rig->recorder->AttachEventLog(rig->log.get());
    rig->recorder->AttachTracer(rig->tracer.get());
    rig->recorder->AttachProfiler(rig->profiler.get());

    shard::ShardedPirEngine::Options options;
    options.num_pages = 64;
    options.page_size = 32;
    options.cache_pages = 8;
    options.privacy_c = 2.0;
    options.shards = 2;
    options.queue_depth = 64;
    options.seed = 19;
    auto engine = shard::ShardedPirEngine::Create(options);
    SHPIR_CHECK(engine.ok());
    rig->engine = std::move(engine).value();
    SHPIR_CHECK_OK(rig->engine->Initialize({}));
    rig->engine->EnableTracing(rig->tracer.get());
    rig->engine->EnableProfiling(rig->profiler.get());
    rig->engine->EnableSlo(obs::SloTracker::Objectives{});
    rig->engine->EnableEventLog(rig->log.get());
    rig->engine->EnableFlightRecorder(rig->recorder.get());
    rig->plant =
        std::make_unique<control::ShardedEnginePlant>(rig->engine.get());
    control::PrivacyCostController::Options copts;
    copts.c_bound = 4.0;
    auto controller =
        control::PrivacyCostController::Create(copts, rig->plant.get());
    SHPIR_CHECK(controller.ok());
    rig->controller = std::move(*controller);

    rig->metrics.FindOrCreateCounter("shpir_test_requests_total")
        ->Increment(7);
    rig->metrics.FindOrCreateGauge("shpir_test_ratio")->Set(0.25);
    obs::Histogram* latency =
        rig->metrics.FindOrCreateHistogram("shpir_test_latency_ns");
    latency->Record(100);
    latency->RecordWithExemplar(300, /*trace_id=*/0xabc);
    rig->metrics.RegisterInfo("shpir_build_info",
                              {{"version", "1.2"}, {"compiler", "gcc x"}});

    shard::ShardedPirEngine* e = rig->engine.get();
    obs::AdminSources sources;
    sources.metrics = &rig->metrics;
    sources.tracer = rig->tracer.get();
    sources.profiler = rig->profiler.get();
    sources.slo = [e] { return e->SloStatusJson(); };
    sources.eventlog = rig->log.get();
    sources.recorder = rig->recorder.get();
    sources.health = [e] { return e->HealthJson(); };
    obs::RegisterStandardDocuments(sources, &rig->admin);
    control::RegisterControlDocument(rig->controller.get(), &rig->admin);
    rig->admin.Add("probe", [p = &rig->probes] {
      ++*p;
      return std::string("probed");
    });

    // The storage side carries no instruments of its own, so serving a
    // document changes nothing the documents report.
    rig->disk = std::make_unique<storage::MemoryDisk>(4, 8);
    rig->provider = std::make_unique<net::StorageServer>(
        rig->disk.get(), nullptr, nullptr, nullptr, nullptr, nullptr,
        nullptr, &rig->admin);
    rig->storage_link =
        std::make_unique<net::DirectTransport>(rig->provider.get());
    rig->hub = std::make_unique<net::ServiceHub>(
        rig->engine.get(), rig->psk, /*rng_seed=*/23, /*metrics=*/nullptr,
        rig->tracer.get(), &rig->admin);
    return rig;
  }

  net::SecureSession Handshake(uint64_t client_id) {
    crypto::SecureRandom rng(client_id);
    Bytes nonce(net::SecureSession::kNonceSize);
    rng.Fill(nonce);
    Result<Bytes> reply =
        hub->HandleFrame(net::ServiceHub::MakeHello(client_id, nonce));
    SHPIR_CHECK(reply.ok());
    Result<net::SecureSession> session =
        net::ServiceHub::CompleteHandshake(*reply, psk, client_id, nonce);
    SHPIR_CHECK(session.ok());
    return std::move(session).value();
  }

  net::PirServiceClient Client(uint64_t client_id) {
    net::ServiceHub* h = hub.get();
    return net::PirServiceClient(
        Handshake(client_id), [h, client_id](ByteSpan record) {
          return h->HandleFrame(net::ServiceHub::MakeData(client_id, record));
        });
  }

  /// Sends one raw sealed-protocol plaintext (op | id(8) | payload)
  /// through the hub and returns the opened response.
  Result<Bytes> SealedRaw(net::SecureSession& session, uint64_t client_id,
                          uint8_t op, ByteSpan payload) {
    Bytes plaintext(1 + 8, 0);
    plaintext[0] = op;
    plaintext.insert(plaintext.end(), payload.begin(), payload.end());
    SHPIR_ASSIGN_OR_RETURN(Bytes record, session.Seal(plaintext));
    SHPIR_ASSIGN_OR_RETURN(
        Bytes reply,
        hub->HandleFrame(net::ServiceHub::MakeData(client_id, record)));
    return session.Open(reply);
  }

  /// Sends one raw ADMIN payload over the storage protocol.
  Result<Bytes> StorageRaw(Bytes payload) {
    net::Request request;
    request.op = net::Op::kAdmin;
    request.payload = std::move(payload);
    return net::DecodeResponse(provider->Handle(net::EncodeRequest(request)));
  }
};

constexpr uint8_t kSealedAdmin = 15;
constexpr uint8_t kSealedError = 1;

TEST(AdminDocuments, EveryDocumentIsByteIdenticalOverBothProtocols) {
  std::unique_ptr<AdminRig> rig = AdminRig::Make();
  {
    // Traced traffic, so the span buffer holds more than one trace.
    net::PirServiceClient traced = rig->Client(1);
    traced.set_tracer(rig->tracer.get());
    for (const storage::PageId id : {3, 40, 9}) {
      ASSERT_TRUE(traced.Retrieve(id).ok());
    }
  }
  rig->engine->WaitIdle();
  const uint64_t incident = rig->recorder->Trigger("manual");
  const std::vector<obs::SpanRecord> spans = rig->tracer->Snapshot();
  ASSERT_FALSE(spans.empty());
  const uint64_t trace_id = spans.back().trace_id;
  std::vector<obs::SpanRecord> one_trace;
  std::copy_if(spans.begin(), spans.end(), std::back_inserter(one_trace),
               [trace_id](const obs::SpanRecord& s) {
                 return s.trace_id == trace_id;
               });
  ASSERT_LT(one_trace.size(), spans.size());
  char hex_id[17];
  std::snprintf(hex_id, sizeof(hex_id), "%016llx",
                static_cast<unsigned long long>(trace_id));

  const obs::MetricsSnapshot snapshot = rig->metrics.Snapshot();
  const std::string json = obs::ToJson(snapshot);
  const std::string table = obs::RenderTable(snapshot);
  const std::string prometheus = obs::ToPrometheusText(snapshot);
  EXPECT_NE(json.find("\"exemplars\":[{\"value\":300,"), std::string::npos)
      << json;
  EXPECT_NE(prometheus.find("# TYPE shpir_test_requests_total counter\n"),
            std::string::npos)
      << prometheus;

  struct Case {
    std::string name;
    std::string arg;
    std::string direct;
  };
  const std::vector<Case> cases = {
      {"stats", "", json},
      {"stats", "json", json},
      {"stats", "table", "build: version=1.2 compiler=gcc x\n" + table},
      {"stats", "prometheus", prometheus},
      {"health", "", rig->engine->HealthJson()},
      {"slo", "", rig->engine->SloStatusJson()},
      {"control", "", rig->controller->StatusJson()},
      {"profile", "", rig->profiler->ToJson()},
      {"profile", "collapsed", rig->profiler->ToCollapsed()},
      {"events", "", obs::EventLogJson(*rig->log)},
      {"incidents", "", rig->recorder->ListJson()},
      {"incidents", std::to_string(incident),
       rig->recorder->ShowJson(incident)},
      {"trace", "", obs::ToChromeTraceJson(spans)},
      {"trace", hex_id, obs::ToChromeTraceJson(one_trace)},
  };
  net::PirServiceClient sealed = rig->Client(2);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name + " " + c.arg);
    ASSERT_FALSE(c.direct.empty());
    const Result<std::string> plain =
        net::FetchAdmin(*rig->storage_link, c.name, c.arg);
    ASSERT_TRUE(plain.ok()) << plain.status();
    EXPECT_EQ(*plain, c.direct);
    const Result<std::string> over_session = sealed.Admin(c.name, c.arg);
    ASSERT_TRUE(over_session.ok()) << over_session.status();
    EXPECT_EQ(*over_session, c.direct);
  }
  // The filtered trace is the one trace, nothing else.
  EXPECT_NE(cases.back().direct.find(hex_id), std::string::npos);
  // An evicted or unknown bundle is NotFound on both protocols.
  EXPECT_FALSE(net::FetchAdmin(*rig->storage_link, "incidents", "99").ok());
  EXPECT_FALSE(sealed.Admin("incidents", "99").ok());
  // The registry held still: every stats view above saw one snapshot.
  EXPECT_EQ(obs::ToJson(rig->metrics.Snapshot()), json);
}

TEST(AdminDocuments, AdminFetchesSpendNoDataPathSloBudget) {
  obs::SloTracker slo(obs::SloTracker::Objectives{});
  obs::AdminRegistry admin;
  admin.Add("probe", [] { return std::string("probed"); });
  storage::MemoryDisk disk(4, 8);
  net::StorageServer server(&disk, nullptr, nullptr, nullptr, &slo, nullptr,
                            nullptr, &admin);
  net::DirectTransport link(&server);
  // Served, refused and unknown documents alike stay off the SLO.
  ASSERT_TRUE(net::FetchAdmin(link, "probe").ok());
  EXPECT_FALSE(net::FetchAdmin(link, "probe", "stray").ok());
  EXPECT_FALSE(net::FetchAdmin(link, "trace", "not-hex").ok());
  EXPECT_EQ(slo.Evaluate().requests_total, 0u);

  // Data requests and undecodable frames still count.
  net::Request read;
  read.op = net::Op::kRead;
  read.location = 1;
  ASSERT_TRUE(
      net::DecodeResponse(server.Handle(net::EncodeRequest(read))).ok());
  EXPECT_FALSE(net::DecodeResponse(server.Handle(Bytes{0xff})).ok());
  const obs::SloTracker::Snapshot counted = slo.Evaluate();
  EXPECT_EQ(counted.requests_total, 2u);
  EXPECT_EQ(counted.errors_total, 1u);
}

TEST(AdminDocuments, StorageHealthIsServedVerbatim) {
  obs::SloTracker slo(obs::SloTracker::Objectives{});
  obs::EventLog log;
  obs::FlightRecorder recorder;
  obs::AdminSources sources;
  sources.health = [&] {
    return net::StorageHealthJson(&slo, &log, &recorder);
  };
  obs::AdminRegistry admin;
  obs::RegisterStandardDocuments(sources, &admin);
  storage::MemoryDisk disk(4, 8);
  net::StorageServer server(&disk, nullptr, nullptr, nullptr, nullptr,
                            nullptr, nullptr, &admin);
  net::DirectTransport link(&server);
  const Result<std::string> health = net::FetchAdmin(link, "health");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(*health, net::StorageHealthJson(&slo, &log, &recorder));
  EXPECT_NE(health->find("\"ready\":true"), std::string::npos);
  EXPECT_NE(health->find("\"role\":\"storage\""), std::string::npos);
}

TEST(AdminDocuments, MalformedRequestsRunNoHandlerOnEitherProtocol) {
  std::unique_ptr<AdminRig> rig = AdminRig::Make();
  const std::string status_before = rig->controller->StatusJson();

  Bytes bad_version = net::EncodeAdminRequest("probe");
  bad_version[0] = net::kAdminRequestVersion + 1;
  const std::vector<Bytes> malformed = {
      bad_version,
      net::EncodeAdminRequest(std::string(net::kMaxAdminNameSize + 1, 'p')),
      net::EncodeAdminRequest("probe", "stray"),
      net::EncodeAdminRequest("control", "set-bounds 8"),
      net::EncodeAdminRequest("control", "set-bounds 8 x"),
      net::EncodeAdminRequest("control", "set-bounds 8  32"),
      net::EncodeAdminRequest("control", "set-bounds -8 32"),
      net::EncodeAdminRequest("control", "freeze now"),
      net::EncodeAdminRequest("control", "FREEZE"),
      net::EncodeAdminRequest("stats", "xml"),
      net::EncodeAdminRequest("stats", "table json"),
  };
  net::SecureSession session = rig->Handshake(3);
  for (const Bytes& payload : malformed) {
    EXPECT_FALSE(rig->StorageRaw(payload).ok());
    const Result<Bytes> reply =
        rig->SealedRaw(session, 3, kSealedAdmin, payload);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_FALSE(reply->empty());
    EXPECT_EQ((*reply)[0], kSealedError);
  }
  EXPECT_EQ(rig->probes, 0);
  EXPECT_FALSE(rig->controller->frozen());
  EXPECT_EQ(rig->controller->StatusJson(), status_before);

  // The well-formed forms do reach their handlers.
  const Result<std::string> probed =
      net::FetchAdmin(*rig->storage_link, "probe");
  ASSERT_TRUE(probed.ok());
  EXPECT_EQ(*probed, "probed");
  EXPECT_EQ(rig->probes, 1);
  // Bounds the controller itself refuses fail atomically, too.
  net::PirServiceClient client = rig->Client(4);
  EXPECT_FALSE(client.Admin("control", "set-bounds 0 8").ok());
  EXPECT_EQ(rig->controller->StatusJson(), status_before);
}

TEST(AdminDocuments, ControlVerbsActAndAnswerWithThePostActionStatus) {
  std::unique_ptr<AdminRig> rig = AdminRig::Make();
  net::PirServiceClient client = rig->Client(5);
  const Result<std::string> frozen = client.Admin("control", "freeze");
  ASSERT_TRUE(frozen.ok()) << frozen.status();
  EXPECT_TRUE(rig->controller->frozen());
  EXPECT_NE(frozen->find("\"frozen\":true"), std::string::npos) << *frozen;
  const Result<std::string> bounded =
      client.Admin("control", "set-bounds 2 4");
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_NE(bounded->find("\"k_min\":2,\"k_max\":4"), std::string::npos)
      << *bounded;
  ASSERT_TRUE(client.Admin("control", "unfreeze").ok());
  EXPECT_FALSE(rig->controller->frozen());
}

// --- Op tables: the retired per-document codes stay dead ---------------

TEST(AdminOps, StorageProtocolHasTenOps) {
  std::set<int> accepted;
  for (int code = 0; code < 256; ++code) {
    Bytes frame(17, 0);
    frame[0] = static_cast<uint8_t>(code);
    if (net::DecodeRequest(frame).ok()) {
      accepted.insert(code);
    }
  }
  // READ, WRITE, READ_RUN, WRITE_RUN, GEOMETRY, KEYWORD_MANIFEST, ADMIN,
  // READ_PLAN, WRITE_PLAN; TRACED (8) is the tenth and only ever wraps
  // one of them.
  EXPECT_EQ(accepted, (std::set<int>{1, 2, 3, 4, 5, 11, 16, 17, 18}));
  net::Request traced;
  traced.op = net::Op::kAdmin;
  traced.trace.trace_id = 7;
  traced.trace.span_id = 8;
  const Bytes enveloped = net::EncodeRequest(traced);
  EXPECT_EQ(enveloped[0], 8);
  EXPECT_TRUE(net::DecodeRequest(enveloped).ok());

  std::unique_ptr<AdminRig> rig = AdminRig::Make();
  for (const int retired : {6, 7, 9, 10, 12, 13, 14, 15}) {
    Bytes frame(17, 0);
    frame[0] = static_cast<uint8_t>(retired);
    frame.push_back(1);  // Any payload the old op took.
    EXPECT_FALSE(net::DecodeResponse(rig->provider->Handle(frame)).ok())
        << "storage op " << retired;
  }
}

TEST(AdminOps, SealedProtocolHasSevenOps) {
  std::unique_ptr<AdminRig> rig = AdminRig::Make();
  net::SecureSession session = rig->Handshake(6);
  std::set<int> known;
  for (int code = 0; code < 256; ++code) {
    const uint8_t payload = 1;  // Any payload the old op took.
    const Result<Bytes> reply = rig->SealedRaw(
        session, 6, static_cast<uint8_t>(code), ByteSpan(&payload, 1));
    // A truncated TRACED envelope fails the whole record instead.
    const bool unknown =
        reply.ok() && !reply->empty() && (*reply)[0] == kSealedError &&
        std::string(reply->begin(), reply->end()).find("unknown op") !=
            std::string::npos;
    if (!unknown) {
      known.insert(code);
    }
  }
  // RETRIEVE, MODIFY, INSERT, REMOVE, TRACED, KEYWORD_MANIFEST, ADMIN.
  EXPECT_EQ(known, (std::set<int>{1, 2, 3, 4, 7, 10, 15}));
}

}  // namespace
}  // namespace shpir
