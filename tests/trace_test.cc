#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "crypto/secure_random.h"
#include "net/pir_service.h"
#include "net/service_hub.h"
#include "net/wire.h"
#include "obs/admin.h"
#include "obs/export.h"
#include "shard/sharded_engine.h"

namespace shpir::obs {
namespace {

// --- TraceContext wire format ---------------------------------------------

TEST(TraceContextTest, EncodeDecodeRoundTrip) {
  TraceContext ctx;
  ctx.trace_id = 0x1122334455667788ull;
  ctx.span_id = 0x99aabbccddeeff01ull;
  ctx.sampled = true;
  const Bytes wire = ctx.Encode();
  ASSERT_EQ(wire.size(), TraceContext::kWireSize);
  Result<TraceContext> back = TraceContext::Decode(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->trace_id, ctx.trace_id);
  EXPECT_EQ(back->span_id, ctx.span_id);
  EXPECT_TRUE(back->sampled);
  EXPECT_TRUE(back->active());
}

TEST(TraceContextTest, UnsampledRoundTrip) {
  TraceContext ctx;
  ctx.trace_id = 7;
  ctx.span_id = 9;
  ctx.sampled = false;
  Result<TraceContext> back = TraceContext::Decode(ctx.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->sampled);
  EXPECT_TRUE(back->valid());
  EXPECT_FALSE(back->active());
}

TEST(TraceContextTest, RejectsEveryTruncation) {
  TraceContext ctx;
  ctx.trace_id = 5;
  ctx.span_id = 6;
  ctx.sampled = true;
  const Bytes wire = ctx.Encode();
  for (size_t len = 0; len < TraceContext::kWireSize; ++len) {
    Result<TraceContext> bad =
        TraceContext::Decode(ByteSpan(wire.data(), len));
    EXPECT_FALSE(bad.ok()) << "accepted truncation to " << len << " bytes";
  }
}

TEST(TraceContextTest, RejectsZeroTraceId) {
  Bytes wire(TraceContext::kWireSize, 0);
  wire[16] = 0x01;  // Sampled flag but trace_id == 0.
  EXPECT_FALSE(TraceContext::Decode(wire).ok());
}

TEST(TraceContextTest, RejectsHostileFlagBits) {
  TraceContext ctx;
  ctx.trace_id = 5;
  ctx.span_id = 6;
  ctx.sampled = true;
  Bytes wire = ctx.Encode();
  for (int bit = 1; bit < 8; ++bit) {
    Bytes hostile = wire;
    hostile[16] = static_cast<uint8_t>(0x01 | (1u << bit));
    EXPECT_FALSE(TraceContext::Decode(hostile).ok())
        << "accepted unknown flag bit " << bit;
  }
}

// --- Storage-wire envelope ------------------------------------------------

TEST(WireEnvelopeTest, TracedRequestRoundTrips) {
  net::Request request;
  request.op = net::Op::kReadRun;
  request.location = 42;
  request.count = 3;
  request.payload = {1, 2, 3};
  request.trace.trace_id = 0xdeadbeef;
  request.trace.span_id = 0xfeed;
  request.trace.sampled = true;
  const Bytes frame = net::EncodeRequest(request);
  Result<net::Request> back = net::DecodeRequest(frame);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->op, net::Op::kReadRun);
  EXPECT_EQ(back->location, 42u);
  EXPECT_EQ(back->count, 3u);
  EXPECT_EQ(back->payload, request.payload);
  EXPECT_EQ(back->trace.trace_id, 0xdeadbeefu);
  EXPECT_EQ(back->trace.span_id, 0xfeedu);
  EXPECT_TRUE(back->trace.sampled);
}

TEST(WireEnvelopeTest, UntracedRequestStaysByteIdentical) {
  net::Request request;
  request.op = net::Op::kRead;
  request.location = 9;
  const Bytes frame = net::EncodeRequest(request);
  // No envelope: the first byte is the op itself.
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(frame[0], static_cast<uint8_t>(net::Op::kRead));
  Result<net::Request> back = net::DecodeRequest(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->trace.valid());
}

TEST(WireEnvelopeTest, RejectsNestedEnvelope) {
  // Inner frame that is itself a kTraced envelope.
  net::Request inner;
  inner.op = net::Op::kRead;
  inner.location = 1;
  inner.trace.trace_id = 10;
  inner.trace.span_id = 11;
  inner.trace.sampled = true;
  const Bytes inner_frame = net::EncodeRequest(inner);  // Enveloped.
  ASSERT_EQ(inner_frame[0], static_cast<uint8_t>(net::Op::kTraced));

  Bytes hostile;
  hostile.push_back(static_cast<uint8_t>(net::Op::kTraced));
  Bytes header(16, 0);
  header[0] = 1;  // trace_id = 1.
  hostile.insert(hostile.end(), header.begin(), header.end());
  hostile.push_back(0x01);  // flags: sampled.
  hostile.insert(hostile.end(), inner_frame.begin(), inner_frame.end());
  EXPECT_FALSE(net::DecodeRequest(hostile).ok());
}

TEST(WireEnvelopeTest, RejectsTruncatedEnvelope) {
  net::Request request;
  request.op = net::Op::kRead;
  request.location = 9;
  request.trace.trace_id = 3;
  request.trace.span_id = 4;
  request.trace.sampled = true;
  const Bytes frame = net::EncodeRequest(request);
  for (size_t len = 1; len < frame.size(); len += 3) {
    EXPECT_FALSE(net::DecodeRequest(ByteSpan(frame.data(), len)).ok())
        << "accepted truncation to " << len << " bytes";
  }
}

TEST(WireEnvelopeTest, RejectsUnknownEnvelopeFlags) {
  net::Request request;
  request.op = net::Op::kRead;
  request.trace.trace_id = 3;
  request.trace.span_id = 4;
  request.trace.sampled = true;
  Bytes frame = net::EncodeRequest(request);
  // The flags byte sits right after the 17-byte header.
  frame[17] = 0x83;
  EXPECT_FALSE(net::DecodeRequest(frame).ok());
}

TEST(WireEnvelopeTest, TraceDumpIsAKnownOp) {
  // The trace dump is the "trace" document of the ADMIN op; a traced
  // ADMIN request unwraps like any other.
  net::Request request;
  request.op = net::Op::kAdmin;
  request.payload = net::EncodeAdminRequest("trace", "00000000000000ab");
  request.trace.trace_id = 5;
  request.trace.span_id = 6;
  Result<net::Request> back = net::DecodeRequest(net::EncodeRequest(request));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, net::Op::kAdmin);
  EXPECT_EQ(back->trace.trace_id, 5u);
  Result<net::AdminRequest> admin = net::DecodeAdminRequest(back->payload);
  ASSERT_TRUE(admin.ok());
  EXPECT_EQ(admin->name, "trace");
  EXPECT_EQ(admin->arg, "00000000000000ab");
}

// --- Sampler --------------------------------------------------------------

TEST(TracerTest, SamplesExactlyOneInN) {
  Tracer::Options options;
  options.sample_every = 4;
  options.seed = 1;
  Tracer tracer(options);
  int sampled = 0;
  for (int i = 0; i < 64; ++i) {
    if (tracer.StartTrace().active()) {
      ++sampled;
    }
  }
  EXPECT_EQ(sampled, 16);
  EXPECT_EQ(tracer.started(), 64u);
  EXPECT_EQ(tracer.sampled(), 16u);
}

TEST(TracerTest, SampleEveryZeroDisablesAndOneSamplesAll) {
  Tracer::Options off;
  off.sample_every = 0;
  off.seed = 1;
  Tracer off_tracer(off);
  Tracer::Options all;
  all.sample_every = 1;
  all.seed = 1;
  Tracer all_tracer(all);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(off_tracer.StartTrace().active());
    EXPECT_TRUE(all_tracer.StartTrace().active());
  }
  EXPECT_EQ(off_tracer.sampled(), 0u);
  EXPECT_EQ(all_tracer.sampled(), 32u);
}

TEST(TracerTest, SeededIdStreamIsDeterministic) {
  Tracer::Options options;
  options.sample_every = 1;
  options.seed = 42;
  Tracer a(options);
  Tracer b(options);
  for (int i = 0; i < 16; ++i) {
    const TraceContext ca = a.StartTrace();
    const TraceContext cb = b.StartTrace();
    EXPECT_EQ(ca.trace_id, cb.trace_id);
    EXPECT_EQ(ca.span_id, cb.span_id);
    EXPECT_NE(ca.trace_id, 0u);
    EXPECT_EQ(a.NewSpanId(), b.NewSpanId());
  }
}

TEST(TracerTest, RateLimitCapsSampledBursts) {
  Tracer::Options options;
  options.sample_every = 1;
  options.seed = 3;
  options.max_sampled_per_sec = 2;
  Tracer tracer(options);
  int sampled = 0;
  for (int i = 0; i < 1000; ++i) {
    if (tracer.StartTrace().active()) {
      ++sampled;
    }
  }
  // The loop takes well under a second; allow one window rollover.
  EXPECT_GE(sampled, 1);
  EXPECT_LE(sampled, 4);
}

// --- Ring buffer ----------------------------------------------------------

TEST(TracerTest, RingWraparoundKeepsNewestSpans) {
  Tracer::Options options;
  options.sample_every = 1;
  options.buffer_capacity = 8;
  options.buffer_lanes = 1;
  options.seed = 5;
  Tracer tracer(options);
  for (uint64_t i = 0; i < 20; ++i) {
    SpanRecord span;
    span.trace_id = 1;
    span.span_id = i + 1;
    span.name = "span";
    span.start_ns = 1000 + i;
    span.duration_ns = 10;
    tracer.Record(span);
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // The oldest 12 were overwritten; the survivors are 13..20 in start
  // order.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].span_id, 13 + i);
    EXPECT_EQ(spans[i].start_ns, 1000 + 12 + i);
  }
}

TEST(TracerTest, PublishMetricsExportsRingDropCounter) {
  MetricsRegistry registry;
  Tracer::Options options;
  options.sample_every = 1;
  options.buffer_capacity = 4;
  options.buffer_lanes = 1;
  options.seed = 7;
  Tracer tracer(options);
  tracer.PublishMetrics(&registry);
  for (uint64_t i = 0; i < 10; ++i) {
    SpanRecord span;
    span.trace_id = 1;
    span.span_id = i + 1;
    span.name = "span";
    span.start_ns = i;
    tracer.Record(span);
  }
  // Ring saturation is observable on the metrics surface without a
  // trace dump: 10 recorded into 4 slots leaves 6 overwritten.
  double recorded = -1;
  double dropped = -1;
  for (const SnapshotGauge& gauge : registry.Snapshot().gauges) {
    if (gauge.name == "shpir_trace_spans_recorded_total") {
      recorded = gauge.value;
    }
    if (gauge.name == "shpir_trace_spans_dropped_total") {
      dropped = gauge.value;
    }
  }
  EXPECT_EQ(recorded, 10.0);
  EXPECT_EQ(dropped, 6.0);
}

TEST(TraceSpanTest, ChildOfInactiveParentRecordsNothing) {
  Tracer::Options options;
  options.sample_every = 1;
  options.seed = 6;
  Tracer tracer(options);
  TraceContext inactive;  // trace_id == 0.
  { TraceSpan span(&tracer, inactive, "child"); }
  TraceContext unsampled;
  unsampled.trace_id = 9;
  unsampled.sampled = false;
  { TraceSpan span(&tracer, unsampled, "child"); }
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
}

// --- Chrome trace JSON ----------------------------------------------------

TEST(ChromeTraceJsonTest, EscapesHostileSpanNames) {
  SpanRecord span;
  span.trace_id = 1;
  span.span_id = 2;
  span.name = "bad\"name\\with\nctrl";
  span.start_ns = 5000;
  span.duration_ns = 2000;
  const std::string json = ToChromeTraceJson({span});
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("bad\\\"name\\\\with\\nctrl"), std::string::npos);
  // The raw quote must not appear unescaped (would break the JSON).
  EXPECT_EQ(json.find("bad\"name"), std::string::npos);
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(EscapeJsonString("plain_name"), "plain_name");
  EXPECT_EQ(EscapeJsonString("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeJsonString("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeJsonString("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(EscapeJsonString(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(JsonEscapeTest, SnapshotRoundTripsEscapedNames) {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"weird\"name\\with\nescapes", 7});
  EXPECT_EQ(ToJson(snapshot),
            "{\"counters\":[{\"name\":\"weird\\\"name\\\\with\\nescapes\","
            "\"value\":7}],\"gauges\":[],\"histograms\":[]}");
}

// --- End-to-end: hub + sharded engine -------------------------------------

struct HubRig {
  std::unique_ptr<shard::ShardedPirEngine> engine;
  std::unique_ptr<AdminRegistry> admin;
  std::unique_ptr<net::ServiceHub> hub;
  Bytes psk;

  static HubRig Make(Tracer* tracer, uint64_t shards) {
    shard::ShardedPirEngine::Options options;
    options.num_pages = 64;
    options.page_size = 32;
    options.cache_pages = 8;
    options.privacy_c = 2.0;
    options.shards = shards;
    options.queue_depth = 64;
    options.seed = 11;
    HubRig rig;
    auto engine = shard::ShardedPirEngine::Create(options);
    SHPIR_CHECK(engine.ok());
    rig.engine = std::move(engine).value();
    SHPIR_CHECK_OK(rig.engine->Initialize({}));
    rig.engine->EnableTracing(tracer);
    rig.psk = Bytes{'t', 'e', 's', 't'};
    AdminSources sources;
    sources.tracer = tracer;
    rig.admin = std::make_unique<AdminRegistry>();
    RegisterStandardDocuments(sources, rig.admin.get());
    rig.hub = std::make_unique<net::ServiceHub>(rig.engine.get(), rig.psk,
                                                /*rng_seed=*/3, nullptr,
                                                tracer, rig.admin.get());
    return rig;
  }

  net::PirServiceClient MakeClient(uint64_t client_id, Tracer* tracer) {
    crypto::SecureRandom rng(17);
    Bytes nonce(net::SecureSession::kNonceSize);
    rng.Fill(nonce);
    Result<Bytes> reply =
        hub->HandleFrame(net::ServiceHub::MakeHello(client_id, nonce));
    SHPIR_CHECK(reply.ok());
    Result<net::SecureSession> session =
        net::ServiceHub::CompleteHandshake(*reply, psk, client_id, nonce);
    SHPIR_CHECK(session.ok());
    net::ServiceHub* raw_hub = hub.get();
    net::PirServiceClient client(
        std::move(session).value(), [raw_hub, client_id](ByteSpan record) {
          return raw_hub->HandleFrame(
              net::ServiceHub::MakeData(client_id, record));
        });
    client.set_tracer(tracer);
    return client;
  }
};

int CountName(const std::vector<SpanRecord>& spans, const std::string& name) {
  return static_cast<int>(
      std::count_if(spans.begin(), spans.end(), [&name](const SpanRecord& s) {
        return name == s.name;
      }));
}

TEST(EndToEndTraceTest, OneQueryYieldsOneLinkedSpanTree) {
  Tracer::Options options;
  options.sample_every = 1;  // Sample everything: deterministic tree.
  options.seed = 23;
  Tracer tracer(options);
  HubRig rig = HubRig::Make(&tracer, /*shards=*/2);
  net::PirServiceClient client = rig.MakeClient(5, &tracer);

  ASSERT_TRUE(client.Retrieve(13).ok());
  rig.engine->WaitIdle();  // Let the cover query's spans land.

  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_FALSE(spans.empty());

  // Exactly one trace.
  std::set<uint64_t> trace_ids;
  for (const SpanRecord& span : spans) {
    trace_ids.insert(span.trace_id);
  }
  EXPECT_EQ(trace_ids.size(), 1u);

  // The full pipeline is present: client encode, hub queue wait, the
  // service handler, the fan-out, and per shard a queue wait plus a
  // shard query (REAL AND COVER SHARE THE NAME — distinguishing them
  // would leak the owning shard), each with an engine round and disk
  // I/O below it.
  EXPECT_EQ(CountName(spans, "client_query"), 1);
  EXPECT_EQ(CountName(spans, "client_encode"), 1);
  EXPECT_EQ(CountName(spans, "hub_queue_wait"), 1);
  EXPECT_EQ(CountName(spans, "service_handle"), 1);
  EXPECT_EQ(CountName(spans, "shard_fanout"), 1);
  EXPECT_EQ(CountName(spans, "queue_wait"), 2);
  EXPECT_EQ(CountName(spans, "shard_query"), 2);
  EXPECT_EQ(CountName(spans, "engine_round"), 2);
  EXPECT_GE(CountName(spans, "disk_read"), 2);
  EXPECT_GE(CountName(spans, "disk_write"), 2);

  // Both shards appear, with identical span vocabularies.
  std::set<int32_t> query_shards;
  for (const SpanRecord& span : spans) {
    if (std::string(span.name) == "shard_query") {
      query_shards.insert(span.shard);
    }
  }
  EXPECT_EQ(query_shards, (std::set<int32_t>{0, 1}));

  // Parent linkage: every span except the root points at a recorded
  // span, so the tree reassembles with no orphans.
  std::set<uint64_t> span_ids;
  for (const SpanRecord& span : spans) {
    EXPECT_NE(span.span_id, 0u);
    span_ids.insert(span.span_id);
  }
  EXPECT_EQ(span_ids.size(), spans.size());  // Ids are unique.
  for (const SpanRecord& span : spans) {
    if (std::string(span.name) == "client_query") {
      EXPECT_EQ(span.parent_span_id, 0u);
    } else {
      EXPECT_TRUE(span_ids.count(span.parent_span_id))
          << span.name << " has an orphan parent";
    }
  }
}

TEST(EndToEndTraceTest, UnsampledQueriesLeaveNoSpans) {
  Tracer::Options options;
  options.sample_every = 0;  // Attached but disabled.
  options.seed = 29;
  Tracer tracer(options);
  HubRig rig = HubRig::Make(&tracer, 2);
  net::PirServiceClient client = rig.MakeClient(6, &tracer);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Retrieve(i).ok());
  }
  rig.engine->WaitIdle();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(EndToEndTraceTest, TraceDumpReturnsChromeJsonThroughTheService) {
  Tracer::Options options;
  options.sample_every = 1;
  options.seed = 31;
  Tracer tracer(options);
  HubRig rig = HubRig::Make(&tracer, 2);
  net::PirServiceClient client = rig.MakeClient(7, &tracer);
  ASSERT_TRUE(client.Retrieve(3).ok());
  rig.engine->WaitIdle();
  Result<std::string> dump = client.Admin("trace");
  ASSERT_TRUE(dump.ok()) << dump.status();
  const std::string& json = *dump;
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("shard_query"), std::string::npos);
  EXPECT_NE(json.find("client_query"), std::string::npos);
}

}  // namespace
}  // namespace shpir::obs
