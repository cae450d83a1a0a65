#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "net/remote_disk.h"
#include "net/storage_server.h"
#include "net/wire.h"
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
  constexpr size_t kSealedSize = 12 + 8 + kPageSize + 32;
  core::CApproxPir::Options options;
  options.num_pages = 40;
  options.page_size = kPageSize;
  options.cache_pages = 6;
  options.block_size = 5;
  Result<uint64_t> slots = core::CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());

  storage::MemoryDisk provider_disk(*slots, kSealedSize);
  StorageServer server(&provider_disk);
  DirectTransport transport(&server);
  Result<std::unique_ptr<RemoteDisk>> remote = RemoteDisk::Connect(&transport);
  ASSERT_TRUE(remote.ok());

  Result<std::unique_ptr<hardware::SecureCoprocessor>> cpu =
      hardware::SecureCoprocessor::Create(
          hardware::HardwareProfile::TwoPartyOwner(64 * hardware::kMB),
          remote->get(), kPageSize, 9);
  ASSERT_TRUE(cpu.ok());
  (*remote)->set_accountant(&(*cpu)->cost());

  Result<std::unique_ptr<core::CApproxPir>> engine =
      core::CApproxPir::Create(cpu->get(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  std::vector<storage::Page> pages;
  for (uint64_t id = 0; id < 40; ++id) {
    pages.emplace_back(id, Bytes(kPageSize, static_cast<uint8_t>(id)));
  }
  ASSERT_TRUE((*engine)->Initialize(pages).ok());

  crypto::SecureRandom rng(10);
  for (int i = 0; i < 100; ++i) {
    const uint64_t id = rng.UniformInt(40);
    Result<Bytes> data = (*engine)->Retrieve(id);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, Bytes(kPageSize, static_cast<uint8_t>(id)));
  }
  // Network counters recorded: 3 round trips per query (block read,
  // extra read + write are single-slot ops... block read, extra read,
  // block write, extra write = 4).
  const auto& counters = (*cpu)->cost().counters();
  EXPECT_GT(counters.network_round_trips, 0u);
  EXPECT_GT(counters.network_bytes, 0u);
  // Simulated time includes the RTT term.
  const double seconds = (*cpu)->ElapsedSeconds();
  EXPECT_GT(seconds, 100 * 4 * 0.050);
}

TEST(TwoPartyTest, PerQueryNetworkCostIsConstant) {
  constexpr size_t kPageSize = 24;
  constexpr size_t kSealedSize = 12 + 8 + kPageSize + 32;
  core::CApproxPir::Options options;
  options.num_pages = 30;
  options.page_size = kPageSize;
  options.cache_pages = 4;
  options.block_size = 6;
  Result<uint64_t> slots = core::CApproxPir::DiskSlots(options);
  ASSERT_TRUE(slots.ok());
  storage::MemoryDisk provider_disk(*slots, kSealedSize);
  StorageServer server(&provider_disk);
  DirectTransport transport(&server);
  Result<std::unique_ptr<RemoteDisk>> remote = RemoteDisk::Connect(&transport);
  ASSERT_TRUE(remote.ok());
  Result<std::unique_ptr<hardware::SecureCoprocessor>> cpu =
      hardware::SecureCoprocessor::Create(
          hardware::HardwareProfile::TwoPartyOwner(64 * hardware::kMB),
          remote->get(), kPageSize, 11);
  ASSERT_TRUE(cpu.ok());
  (*remote)->set_accountant(&(*cpu)->cost());
  Result<std::unique_ptr<core::CApproxPir>> engine =
      core::CApproxPir::Create(cpu->get(), options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Initialize({}).ok());

  crypto::SecureRandom rng(12);
  auto prev = (*cpu)->cost().Snapshot();
  uint64_t first_rtts = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*engine)->Retrieve(rng.UniformInt(30)).ok());
    const auto delta = (*cpu)->cost().Snapshot() - prev;
    prev = (*cpu)->cost().Snapshot();
    if (i == 0) {
      first_rtts = delta.network_round_trips;
    }
    EXPECT_EQ(delta.network_round_trips, first_rtts) << i;
    EXPECT_EQ(delta.network_round_trips, 4u) << i;
  }
}

}  // namespace
}  // namespace shpir::net
