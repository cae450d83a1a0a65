#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "net/remote_disk.h"
#include "net/storage_server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "perfbench/seams.h"
#include "storage/access_trace.h"
#include "storage/disk.h"

namespace shpir::net {
namespace {

TEST(WireTest, RequestRoundTrip) {
  Request request;
  request.op = Op::kWriteRun;
  request.location = 42;
  request.count = 3;
  request.payload = {1, 2, 3, 4};
  Result<Request> back = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, Op::kWriteRun);
  EXPECT_EQ(back->location, 42u);
  EXPECT_EQ(back->count, 3u);
  EXPECT_EQ(back->payload, (Bytes{1, 2, 3, 4}));
}

TEST(WireTest, RejectsMalformedFrames) {
  EXPECT_FALSE(DecodeRequest(Bytes{1, 2}).ok());
  Bytes unknown(17, 0);
  unknown[0] = 99;
  EXPECT_FALSE(DecodeRequest(unknown).ok());
  EXPECT_FALSE(DecodeResponse(Bytes{}).ok());
}

TEST(WireTest, ResponseRoundTrip) {
  Result<Bytes> ok = DecodeResponse(EncodeOkResponse(Bytes{5, 6}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, (Bytes{5, 6}));
  Result<Bytes> err =
      DecodeResponse(EncodeErrorResponse(NotFoundError("gone")));
  EXPECT_FALSE(err.ok());
  EXPECT_NE(err.status().message().find("gone"), std::string::npos);
}

TEST(WireTest, ControlRequestRoundTrip) {
  // Operator verbs ride the ADMIN op as the "control" document's
  // argument text.
  for (const std::string arg :
       {"", "freeze", "unfreeze", "set-bounds 32 128"}) {
    Result<AdminRequest> back =
        DecodeAdminRequest(EncodeAdminRequest("control", arg));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->name, "control");
    EXPECT_EQ(back->arg, arg);
  }
  Request request;
  request.op = Op::kAdmin;
  request.payload = EncodeAdminRequest("control", "set-bounds 32 128");
  Result<Request> frame = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->op, Op::kAdmin);
  EXPECT_EQ(frame->payload, request.payload);
}

TEST(WireTest, ControlRequestRejectsMalformedPayloads) {
  const Bytes good = EncodeAdminRequest("control", "freeze");
  ASSERT_EQ(good.size(), 2u + 7u + 6u);
  ASSERT_TRUE(DecodeAdminRequest(good).ok());

  EXPECT_FALSE(DecodeAdminRequest(Bytes{}).ok());
  EXPECT_FALSE(DecodeAdminRequest(Bytes{kAdminRequestVersion}).ok());
  // The size byte promising more name than the payload holds.
  EXPECT_FALSE(DecodeAdminRequest(Bytes(good.begin(), good.begin() + 8)).ok());

  Bytes future_version = good;
  future_version[0] = kAdminRequestVersion + 1;
  EXPECT_FALSE(DecodeAdminRequest(future_version).ok());

  // Names: non-empty, at most kMaxAdminNameSize of [a-z0-9_-].
  EXPECT_FALSE(DecodeAdminRequest(EncodeAdminRequest("")).ok());
  EXPECT_FALSE(DecodeAdminRequest(
                   EncodeAdminRequest(std::string(kMaxAdminNameSize + 1, 'c')))
                   .ok());
  EXPECT_FALSE(
      DecodeAdminRequest(EncodeAdminRequest(std::string(300, 'c'))).ok());
  EXPECT_FALSE(DecodeAdminRequest(EncodeAdminRequest("Control")).ok());
  EXPECT_FALSE(DecodeAdminRequest(EncodeAdminRequest("con trol")).ok());

  // Arguments: at most kMaxAdminArgSize printable ASCII bytes.
  EXPECT_FALSE(DecodeAdminRequest(
                   EncodeAdminRequest("control",
                                      std::string(kMaxAdminArgSize + 1, 'f')))
                   .ok());
  EXPECT_FALSE(DecodeAdminRequest(EncodeAdminRequest("control", "a\nb")).ok());
  EXPECT_FALSE(
      DecodeAdminRequest(EncodeAdminRequest("control", "\x7f")).ok());
}

TEST(StorageControlTest, ControlOpRoutesVerbsToTheProvider) {
  storage::MemoryDisk disk(4, 8);

  // Without a registry every document answers NotFound.
  StorageServer bare(&disk);
  DirectTransport bare_link(&bare);
  Result<std::string> unattached = FetchAdmin(bare_link, "control");
  EXPECT_FALSE(unattached.ok());
  EXPECT_NE(unattached.status().message().find("no admin documents"),
            std::string::npos);

  std::vector<std::string> seen;
  obs::AdminRegistry admin;
  admin.AddWithArg("control",
                   [&seen](std::string_view arg) -> Result<std::string> {
                     seen.emplace_back(arg);
                     if (arg == "set-bounds 64 16") {
                       return InvalidArgumentError("no feasible block size");
                     }
                     return std::string("{\"frozen\":false}");
                   });
  StorageServer server(&disk, nullptr, nullptr, nullptr, nullptr, nullptr,
                       nullptr, &admin);
  DirectTransport link(&server);

  Result<std::string> status = FetchAdmin(link, "control");
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_EQ(*status, "{\"frozen\":false}");
  ASSERT_TRUE(FetchAdmin(link, "control", "set-bounds 16 64").ok());

  // A handler rejection surfaces as the wire error, verbatim.
  Result<std::string> rejected =
      FetchAdmin(link, "control", "set-bounds 64 16");
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("no feasible block size"),
            std::string::npos);

  // A malformed payload is rejected before the handler ever runs.
  Request request;
  request.op = Op::kAdmin;
  request.payload = Bytes{1, 2, 3};
  EXPECT_FALSE(DecodeResponse(server.Handle(EncodeRequest(request))).ok());

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "");
  EXPECT_EQ(seen[1], "set-bounds 16 64");
  EXPECT_EQ(seen[2], "set-bounds 64 16");
}

TEST(RemoteDiskTest, GeometryAndBasicIo) {
  storage::MemoryDisk disk(16, 32);
  StorageServer server(&disk);
  DirectTransport transport(&server);
  Result<std::unique_ptr<RemoteDisk>> remote = RemoteDisk::Connect(&transport);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ((*remote)->num_slots(), 16u);
  EXPECT_EQ((*remote)->slot_size(), 32u);

  Bytes data(32, 0x7a);
  ASSERT_TRUE((*remote)->Write(5, data).ok());
  Bytes out(32);
  ASSERT_TRUE((*remote)->Read(5, out).ok());
  EXPECT_EQ(out, data);
  // Verify it actually landed on the provider's disk.
  Bytes direct(32);
  ASSERT_TRUE(disk.Read(5, direct).ok());
  EXPECT_EQ(direct, data);
}

TEST(RemoteDiskTest, RunsAreBatchedIntoOneRoundTrip) {
  storage::MemoryDisk disk(16, 8);
  StorageServer server(&disk);
  DirectTransport transport(&server);
  Result<std::unique_ptr<RemoteDisk>> remote = RemoteDisk::Connect(&transport);
  ASSERT_TRUE(remote.ok());
  hardware::CostAccountant cost;
  (*remote)->set_accountant(&cost);

  std::vector<Bytes> slots(4, Bytes(8, 0x11));
  ASSERT_TRUE((*remote)->WriteRun(2, slots).ok());
  EXPECT_EQ(cost.counters().network_round_trips, 1u);
  std::vector<Bytes> out;
  ASSERT_TRUE((*remote)->ReadRun(2, 4, out).ok());
  EXPECT_EQ(cost.counters().network_round_trips, 2u);
  EXPECT_EQ(out, slots);
  // Bytes include sealed payloads both directions.
  EXPECT_GT(cost.counters().network_bytes, 2u * 4u * 8u);
}

TEST(RemoteDiskTest, RemoteErrorsPropagate) {
  storage::MemoryDisk disk(4, 8);
  StorageServer server(&disk);
  DirectTransport transport(&server);
  Result<std::unique_ptr<RemoteDisk>> remote = RemoteDisk::Connect(&transport);
  ASSERT_TRUE(remote.ok());
  Bytes out(8);
  EXPECT_FALSE((*remote)->Read(4, out).ok());  // Out of range remotely.
  std::vector<Bytes> slots(2, Bytes(7, 0));    // Wrong slot size.
  EXPECT_FALSE((*remote)->WriteRun(0, slots).ok());
}

TEST(TwoPartyTest, FullPirStackOverTheWire) {
  // The paper's two-party model: owner-side coprocessor + engine over a
  // RemoteDisk; provider sees only sealed pages.
  constexpr size_t kPageSize = 24;
  core::CApproxPir::Options options;
  options.num_pages = 40;
  options.page_size = kPageSize;
  options.cache_pages = 6;
  options.block_size = 5;
  Result<uint64_t> slots = core::CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());

  storage::MemoryDisk provider_disk(
      *slots, storage::PageCipher::SealedSize(kPageSize));
  StorageServer server(&provider_disk);
  DirectTransport transport(&server);
  Result<std::unique_ptr<RemoteDisk>> remote = RemoteDisk::Connect(&transport);
  ASSERT_TRUE(remote.ok());

  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::TwoPartyOwner(64 * hardware::kMB),
      9, remote->get());
  ASSERT_TRUE(stack.ok()) << stack.status();
  core::CApproxPir& engine = (*stack)->engine();
  hardware::SecureCoprocessor& cpu = (*stack)->cpu();
  (*remote)->set_accountant(&cpu.cost());

  std::vector<storage::Page> pages;
  for (uint64_t id = 0; id < 40; ++id) {
    pages.emplace_back(id, Bytes(kPageSize, static_cast<uint8_t>(id)));
  }
  ASSERT_TRUE(engine.Initialize(pages).ok());

  const auto before = cpu.cost().Snapshot();
  const double setup_seconds = cpu.ElapsedSeconds();
  crypto::SecureRandom rng(10);
  for (int i = 0; i < 100; ++i) {
    const uint64_t id = rng.UniformInt(40);
    Result<Bytes> data = engine.Retrieve(id);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, Bytes(kPageSize, static_cast<uint8_t>(id)));
  }
  // Each query is the paper's two round trips: one READ_PLAN carrying
  // the block and the extra page, then one WRITE_PLAN writing them back.
  const auto queries = cpu.cost().Snapshot() - before;
  EXPECT_EQ(queries.network_round_trips, 100u * 2u);
  EXPECT_GT(queries.network_bytes, 0u);
  // Simulated time includes the RTT term: 50 ms per round trip.
  EXPECT_GT(cpu.ElapsedSeconds() - setup_seconds, 100 * 2 * 0.050);
}

TEST(TwoPartyTest, PerQueryNetworkCostIsConstant) {
  constexpr size_t kPageSize = 24;
  core::CApproxPir::Options options;
  options.num_pages = 30;
  options.page_size = kPageSize;
  options.cache_pages = 4;
  options.block_size = 6;
  Result<uint64_t> slots = core::CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());
  storage::MemoryDisk provider_disk(
      *slots, storage::PageCipher::SealedSize(kPageSize));
  StorageServer server(&provider_disk);
  DirectTransport transport(&server);
  Result<std::unique_ptr<RemoteDisk>> remote = RemoteDisk::Connect(&transport);
  ASSERT_TRUE(remote.ok());
  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::TwoPartyOwner(64 * hardware::kMB),
      11, remote->get());
  ASSERT_TRUE(stack.ok()) << stack.status();
  core::CApproxPir& engine = (*stack)->engine();
  hardware::SecureCoprocessor& cpu = (*stack)->cpu();
  (*remote)->set_accountant(&cpu.cost());
  ASSERT_TRUE(engine.Initialize({}).ok());

  crypto::SecureRandom rng(12);
  auto prev = cpu.cost().Snapshot();
  uint64_t first_rtts = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.Retrieve(rng.UniformInt(30)).ok());
    const auto delta = cpu.cost().Snapshot() - prev;
    prev = cpu.cost().Snapshot();
    if (i == 0) {
      first_rtts = delta.network_round_trips;
    }
    EXPECT_EQ(delta.network_round_trips, first_rtts) << i;
    EXPECT_EQ(delta.network_round_trips, 2u) << i;
  }
}

// --- Round plans: one READ_PLAN and one WRITE_PLAN per round -----------

std::vector<Bytes> DistinctSlots(size_t count, size_t size, uint8_t first) {
  std::vector<Bytes> slots;
  for (size_t i = 0; i < count; ++i) {
    slots.emplace_back(size, static_cast<uint8_t>(first + i));
  }
  return slots;
}

TEST(WireTest, PlanRequestRoundTrip) {
  const storage::IoPlan plan{6, 3, 14};
  for (const Op op : {Op::kReadPlan, Op::kWritePlan}) {
    Request request = PlanRequest(op, plan);
    EXPECT_EQ(request.payload.size(), kPlanHeaderSize);
    EXPECT_EQ(request.payload[0], kPlanVersion);
    if (op == Op::kWritePlan) {
      request.payload.resize(kPlanHeaderSize + 4 * 8, 0xab);
    }
    Result<Request> back = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->op, op);
    Result<storage::IoPlan> decoded = DecodePlanRequest(*back, 16, 8);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->block_start, 6u);
    EXPECT_EQ(decoded->k, 3u);
    EXPECT_EQ(decoded->extra, 14u);
  }
}

TEST(RemoteDiskTest, PlansCostOneRoundTripEachAndMatchRunPlusSlot) {
  constexpr size_t kSlot = 8;
  storage::MemoryDisk disk(16, kSlot);
  StorageServer server(&disk);
  DirectTransport transport(&server);
  Result<std::unique_ptr<RemoteDisk>> remote = RemoteDisk::Connect(&transport);
  ASSERT_TRUE(remote.ok());
  hardware::CostAccountant cost;
  (*remote)->set_accountant(&cost);

  const storage::IoPlan plan{4, 3, 12};
  const std::vector<Bytes> run = DistinctSlots(3, kSlot, 0x10);
  const Bytes extra(kSlot, 0x7e);
  ASSERT_TRUE((*remote)->WritePlan(plan, run, extra).ok());
  EXPECT_EQ(cost.counters().network_round_trips, 1u);
  // The plan landed where WriteRun + Write would have put it.
  for (uint64_t i = 0; i < 3; ++i) {
    Bytes slot(kSlot);
    ASSERT_TRUE(disk.Read(4 + i, slot).ok());
    EXPECT_EQ(slot, run[i]) << i;
  }
  Bytes slot(kSlot);
  ASSERT_TRUE(disk.Read(12, slot).ok());
  EXPECT_EQ(slot, extra);

  std::vector<Bytes> planned;
  ASSERT_TRUE((*remote)->ReadPlan(plan, planned).ok());
  EXPECT_EQ(cost.counters().network_round_trips, 2u);
  // ReadRun + Read return the same k+1 slots, extra last, in two trips.
  std::vector<Bytes> separate;
  ASSERT_TRUE((*remote)->ReadRun(4, 3, separate).ok());
  separate.emplace_back(kSlot);
  ASSERT_TRUE((*remote)->Read(12, separate.back()).ok());
  EXPECT_EQ(cost.counters().network_round_trips, 4u);
  EXPECT_EQ(planned, separate);

  // A run of the wrong length fails before anything is sent.
  EXPECT_FALSE((*remote)->WritePlan(plan, DistinctSlots(2, kSlot, 1), extra)
                   .ok());
  EXPECT_FALSE((*remote)->WritePlan(plan, run, Bytes(kSlot - 1, 0)).ok());
  EXPECT_EQ(cost.counters().network_round_trips, 4u);
}

TEST(StorageServerTest, MalformedPlansAreRefusedBeforeAnyDiskCall) {
  constexpr uint64_t kSlots = 16;
  constexpr size_t kSlot = 8;
  storage::MemoryDisk inner(kSlots, kSlot);
  perfbench::FootprintDisk disk(&inner);
  obs::MetricsRegistry metrics;
  obs::SloTracker slo;
  StorageServer server(&disk, &metrics, nullptr, nullptr, &slo);
  const obs::Counter* errors =
      metrics.FindOrCreateCounter("shpir_provider_errors_total");

  const auto write_plan = [&](const storage::IoPlan& plan) {
    Request request = PlanRequest(Op::kWritePlan, plan);
    request.payload.resize(kPlanHeaderSize + (plan.k + 1) * kSlot, 0x5a);
    return request;
  };
  std::vector<std::pair<std::string, Request>> malformed;
  for (const Op op : {Op::kReadPlan, Op::kWritePlan}) {
    const std::string name = op == Op::kReadPlan ? "read" : "write";
    const storage::IoPlan good{4, 3, 12};
    const Request valid =
        op == Op::kReadPlan ? PlanRequest(op, good) : write_plan(good);
    Request bad_version = valid;
    bad_version.payload[0] = kPlanVersion + 1;
    malformed.push_back({name + " wrong version", bad_version});
    Request too_long = valid;
    too_long.payload.push_back(0);
    malformed.push_back({name + " payload too long", too_long});
    Request too_short = valid;
    too_short.payload.pop_back();
    malformed.push_back({name + " payload too short", too_short});
    Request header_only = valid;
    header_only.payload.resize(3);
    malformed.push_back({name + " truncated header", header_only});
    const storage::IoPlan past_end{kSlots - 2, 3, 0};
    malformed.push_back({name + " run past the end",
                         op == Op::kReadPlan ? PlanRequest(op, past_end)
                                             : write_plan(past_end)});
    const storage::IoPlan wraps{UINT64_MAX - 1, 3, 0};
    Request wrapping = PlanRequest(op, wraps);
    malformed.push_back({name + " run wrapping around", wrapping});
    const storage::IoPlan extra_out{4, 3, kSlots};
    malformed.push_back({name + " extra slot past the end",
                         op == Op::kReadPlan ? PlanRequest(op, extra_out)
                                             : write_plan(extra_out)});
  }
  // Runs whose bounds wrap, refused before anything is allocated. For
  // the read, start + count wraps to 1 over a 2^40-slot run; for the
  // write, count x slot size wraps to 0, matching an empty payload.
  Request read_run;
  read_run.op = Op::kReadRun;
  read_run.location = (~uint64_t{0} << 40) + 1;
  read_run.count = uint64_t{1} << 40;
  malformed.push_back({"read run wrapping around", read_run});
  Request write_run;
  write_run.op = Op::kWriteRun;
  write_run.count = ~uint64_t{0} / kSlot + 1;
  malformed.push_back({"write run whose size wraps", write_run});
  for (const auto& [name, request] : malformed) {
    const uint64_t errors_before = errors->Value();
    const uint64_t slo_errors_before = slo.Evaluate().errors_total;
    const Result<Bytes> response =
        DecodeResponse(server.Handle(EncodeRequest(request)));
    EXPECT_FALSE(response.ok()) << name;
    EXPECT_TRUE(disk.Take().empty()) << name;
    EXPECT_EQ(errors->Value(), errors_before + 1) << name;
    // A refused plan spends the data path's SLO budget like any data op.
    EXPECT_EQ(slo.Evaluate().errors_total, slo_errors_before + 1) << name;
  }

  // A well-formed plan makes exactly its two disk calls.
  ASSERT_TRUE(
      DecodeResponse(server.Handle(EncodeRequest(write_plan({4, 3, 12}))))
          .ok());
  const std::vector<perfbench::DiskCall> calls = disk.Take();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].kind, perfbench::DiskCall::Kind::kWriteRun);
  EXPECT_EQ(calls[1].kind, perfbench::DiskCall::Kind::kWrite);
  EXPECT_EQ(calls[1].start, 12u);
  EXPECT_EQ(metrics.FindOrCreateCounter("shpir_provider_write_slots_total")
                ->Value(),
            4u);
  ASSERT_TRUE(
      DecodeResponse(server.Handle(EncodeRequest(PlanRequest(
                         Op::kReadPlan, storage::IoPlan{4, 3, 12}))))
          .ok());
  EXPECT_EQ(metrics.FindOrCreateCounter("shpir_provider_read_slots_total")
                ->Value(),
            4u);
  const obs::SloTracker::Snapshot counted = slo.Evaluate();
  EXPECT_EQ(counted.requests_total, malformed.size() + 2);
  EXPECT_EQ(counted.errors_total, malformed.size());
}

TEST(StorageServerTest, PlansAreTracedAndProfiledUnderTheirOwnNames) {
  constexpr size_t kSlot = 8;
  storage::MemoryDisk disk(16, kSlot);
  obs::Tracer::Options every;
  every.sample_every = 1;
  obs::Tracer provider_tracer(every);
  obs::Profiler::Options profile_every;
  profile_every.sample_every = 1;
  obs::Profiler profiler(profile_every);
  StorageServer server(&disk, nullptr, &provider_tracer, &profiler);
  DirectTransport transport(&server);
  Result<std::unique_ptr<RemoteDisk>> remote = RemoteDisk::Connect(&transport);
  ASSERT_TRUE(remote.ok());
  obs::Tracer owner_tracer(every);
  (*remote)->set_tracer(&owner_tracer);
  (*remote)->set_trace_context(owner_tracer.StartTrace());

  const storage::IoPlan plan{4, 3, 12};
  ASSERT_TRUE((*remote)
                  ->WritePlan(plan, DistinctSlots(3, kSlot, 1),
                              Bytes(kSlot, 9))
                  .ok());
  std::vector<Bytes> out;
  ASSERT_TRUE((*remote)->ReadPlan(plan, out).ok());

  std::vector<std::string> names;
  for (const obs::SpanRecord& span : provider_tracer.Snapshot()) {
    names.emplace_back(span.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"provider_write_plan",
                                             "provider_read_plan"}));
  const std::string stacks = profiler.ToCollapsedShape();
  EXPECT_NE(stacks.find("provider_handle;provider_write_plan"),
            std::string::npos)
      << stacks;
  EXPECT_NE(stacks.find("provider_handle;provider_read_plan"),
            std::string::npos)
      << stacks;
}

/// The owner's seeded device and engine, either over RemoteDisk ->
/// DirectTransport -> StorageServer on a provider disk (Remote), or
/// straight over that disk (Local). Not a core::EngineStack: the engine
/// only marks requests in `trace`, which the caller records at the
/// provider's disk; a stack would record them again at the device.
struct OwnerRig {
  static constexpr size_t kPageSize = 24;
  static constexpr size_t kSealedSize =
      storage::PageCipher::SealedSize(kPageSize);

  static core::CApproxPir::Options Options() {
    core::CApproxPir::Options options;
    options.num_pages = 40;
    options.page_size = kPageSize;
    options.cache_pages = 6;
    options.block_size = 5;
    options.insert_reserve = 8;
    return options;
  }

  static uint64_t Slots() {
    Result<uint64_t> slots = core::CApproxPir::DiskSlots(Options());
    SHPIR_CHECK(slots.ok());
    return *slots;
  }

  /// Remote: `disk` sits behind the StorageServer.
  static std::unique_ptr<OwnerRig> Remote(storage::Disk* disk,
                                          storage::AccessTrace* trace) {
    auto rig = std::make_unique<OwnerRig>();
    rig->server = std::make_unique<StorageServer>(disk);
    rig->transport = std::make_unique<DirectTransport>(rig->server.get());
    Result<std::unique_ptr<RemoteDisk>> remote =
        RemoteDisk::Connect(rig->transport.get());
    SHPIR_CHECK(remote.ok());
    rig->remote = std::move(remote).value();
    rig->Start(rig->remote.get(), trace);
    return rig;
  }

  /// Local: the owner's device drives `disk` directly.
  static std::unique_ptr<OwnerRig> Local(storage::Disk* disk,
                                         storage::AccessTrace* trace) {
    auto rig = std::make_unique<OwnerRig>();
    rig->Start(disk, trace);
    return rig;
  }

  void Start(storage::Disk* disk, storage::AccessTrace* trace) {
    Result<std::unique_ptr<hardware::SecureCoprocessor>> device =
        hardware::SecureCoprocessor::Create(
            hardware::HardwareProfile::TwoPartyOwner(64 * hardware::kMB),
            disk, kPageSize, 21);
    SHPIR_CHECK(device.ok());
    cpu = std::move(device).value();
    Result<std::unique_ptr<core::CApproxPir>> created =
        core::CApproxPir::Create(cpu.get(), Options(), trace);
    SHPIR_CHECK(created.ok());
    engine = std::move(created).value();
    std::vector<storage::Page> pages;
    for (uint64_t id = 0; id < Options().num_pages; ++id) {
      pages.emplace_back(id, Bytes(kPageSize, static_cast<uint8_t>(id)));
    }
    SHPIR_CHECK_OK(engine->Initialize(pages));
  }

  std::unique_ptr<StorageServer> server;
  std::unique_ptr<DirectTransport> transport;
  std::unique_ptr<RemoteDisk> remote;
  std::unique_ptr<hardware::SecureCoprocessor> cpu;
  std::unique_ptr<core::CApproxPir> engine;
};

/// Runs `ops` seeded operations on `engine`: half Retrieve, a fifth
/// Modify, and the rest alternating Remove and Insert so the spares
/// never run out. Calls `after_op` after each and returns what every
/// operation answered: its payload or new id, or its status.
std::vector<std::string> RunMixedOps(core::CApproxPir& engine, int ops,
                                     const std::function<void()>& after_op) {
  crypto::SecureRandom rng(33);
  std::vector<storage::PageId> live;
  for (storage::PageId id = 0; id < engine.num_pages(); ++id) {
    live.push_back(id);
  }
  bool remove_next = true;
  std::vector<std::string> answers;
  for (int i = 0; i < ops; ++i) {
    const uint64_t kind = rng.UniformInt(10);
    const size_t at = rng.UniformInt(live.size());
    const storage::PageId id = live[at];
    const Bytes data(engine.page_size(), static_cast<uint8_t>(i));
    if (kind < 5) {
      Result<Bytes> page = engine.Retrieve(id);
      answers.push_back(page.ok()
                            ? "get " + std::string(page->begin(), page->end())
                            : page.status().ToString());
    } else if (kind < 7) {
      answers.push_back(engine.Modify(id, data).ToString());
    } else if (remove_next) {
      answers.push_back(engine.Remove(id).ToString());
      live.erase(live.begin() + static_cast<ptrdiff_t>(at));
      remove_next = false;
    } else {
      Result<storage::PageId> added = engine.Insert(data);
      if (added.ok()) {
        live.push_back(*added);
      }
      answers.push_back(added.ok() ? "insert " + std::to_string(*added)
                                   : added.status().ToString());
      remove_next = true;
    }
    after_op();
  }
  return answers;
}

TEST(TwoPartyTest, ProviderDiskSeesTheFourCallRoundForEveryOperation) {
  storage::MemoryDisk inner(OwnerRig::Slots(), OwnerRig::kSealedSize);
  perfbench::FootprintDisk footprint(&inner);
  std::unique_ptr<OwnerRig> rig = OwnerRig::Remote(&footprint, nullptr);
  (void)footprint.Take();  // The bulk load is not a round.
  const uint64_t k = rig->engine->block_size();
  const uint64_t period = rig->engine->scan_period();
  uint64_t round = 0;
  const std::vector<std::string> answers =
      RunMixedOps(*rig->engine, 300, [&] {
        const uint64_t block_start = (round % period) * k;
        EXPECT_EQ(perfbench::CheckProviderRound(footprint.Take(),
                                                block_start, k),
                  "")
            << "round " << round;
        ++round;
      });
  // Every kind of operation ran, and each ran as one ordinary round.
  const core::CApproxPir::Stats& stats = rig->engine->stats();
  EXPECT_GT(stats.modifies, 0u);
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_GT(stats.removes, 0u);
  EXPECT_EQ(stats.queries, round);
  for (const std::string& answer : answers) {
    EXPECT_TRUE(answer == "OK" || answer.starts_with("get ") ||
                answer.starts_with("insert "))
        << answer;
  }
}

TEST(TwoPartyTest, RemoteRunMatchesLocalTraceAndPayloads) {
  storage::MemoryDisk local_inner(OwnerRig::Slots(), OwnerRig::kSealedSize);
  storage::AccessTrace local_trace;
  storage::TracingDisk local_disk(&local_inner, &local_trace);
  std::unique_ptr<OwnerRig> local = OwnerRig::Local(&local_disk,
                                                    &local_trace);

  storage::MemoryDisk remote_inner(OwnerRig::Slots(), OwnerRig::kSealedSize);
  storage::AccessTrace remote_trace;
  storage::TracingDisk remote_disk(&remote_inner, &remote_trace);
  std::unique_ptr<OwnerRig> remote = OwnerRig::Remote(&remote_disk,
                                                      &remote_trace);

  const auto nothing = [] {};
  const std::vector<std::string> local_answers =
      RunMixedOps(*local->engine, 200, nothing);
  const std::vector<std::string> remote_answers =
      RunMixedOps(*remote->engine, 200, nothing);
  EXPECT_EQ(local_answers, remote_answers);
  EXPECT_EQ(local_trace.num_requests(), 200u);
  EXPECT_EQ(local_trace.events(), remote_trace.events());
  // Same seeds, same nonces: the provider holds the same bytes.
  for (storage::Location loc = 0; loc < local_inner.num_slots(); ++loc) {
    Bytes a(OwnerRig::kSealedSize), b(OwnerRig::kSealedSize);
    ASSERT_TRUE(local_inner.Read(loc, a).ok());
    ASSERT_TRUE(remote_inner.Read(loc, b).ok());
    ASSERT_EQ(a, b) << "slot " << loc;
  }
}

}  // namespace
}  // namespace shpir::net
