#include "net/wire.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "core/thread_safe_engine.h"
#include "crypto/secure_random.h"
#include "keyword/keyword_cuckoo.h"
#include "keyword/keyword_map.h"
#include "net/remote_disk.h"
#include "net/service_hub.h"
#include "net/storage_server.h"
#include "storage/disk.h"
#include "workload/workload.h"
#include "test_stack.h"

namespace shpir::net {
namespace {

/// A real manifest to ship over the wire.
keyword::BuiltKeywordStore MakeStore(uint64_t build_version) {
  std::vector<keyword::KeyValue> entries(64);
  for (uint64_t i = 0; i < entries.size(); ++i) {
    entries[i].key = workload::KeyForIndex(i);
    const std::string value = "value-" + std::to_string(i);
    entries[i].value = Bytes(value.begin(), value.end());
  }
  keyword::CuckooOptions options;
  options.page_size = 64;
  options.build_version = build_version;
  auto store = keyword::BuildCuckooStore(entries, options);
  SHPIR_CHECK(store.ok());
  return std::move(store).value();
}

// --- Shared codec -----------------------------------------------------

TEST(KeywordManifestCodecTest, RequestRoundTrips) {
  const Bytes payload = EncodeKeywordManifestRequest(0xDEADBEEFu);
  ASSERT_EQ(payload.size(), 9u);
  EXPECT_EQ(payload[0], kKeywordManifestRequestVersion);
  Result<uint64_t> cached = DecodeKeywordManifestRequest(payload);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_EQ(*cached, 0xDEADBEEFu);
}

TEST(KeywordManifestCodecTest, RequestRejectsBadSizesAndVersions) {
  EXPECT_FALSE(DecodeKeywordManifestRequest(Bytes{}).ok());
  EXPECT_FALSE(DecodeKeywordManifestRequest(Bytes(8, 0)).ok());
  EXPECT_FALSE(DecodeKeywordManifestRequest(Bytes(10, 0)).ok());
  Bytes unknown_version = EncodeKeywordManifestRequest(1);
  unknown_version[0] = 0xEE;
  EXPECT_FALSE(DecodeKeywordManifestRequest(unknown_version).ok());
}

TEST(KeywordManifestCodecTest, ResponseRoundTripsWithAndWithoutBody) {
  KeywordManifest manifest;
  manifest.manifest = Bytes{1, 2, 3, 4};
  manifest.version = 7;

  Result<KeywordManifest> full = DecodeKeywordManifestResponse(
      EncodeKeywordManifestResponse(manifest, /*include_body=*/true));
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->version, 7u);
  EXPECT_EQ(full->manifest, manifest.manifest);

  Result<KeywordManifest> cached = DecodeKeywordManifestResponse(
      EncodeKeywordManifestResponse(manifest, /*include_body=*/false));
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_EQ(cached->version, 7u);
  EXPECT_TRUE(cached->manifest.empty());
}

TEST(KeywordManifestCodecTest, ResponseRejectsMalformedFrames) {
  // Truncated header.
  EXPECT_FALSE(DecodeKeywordManifestResponse(Bytes{}).ok());
  EXPECT_FALSE(DecodeKeywordManifestResponse(Bytes(8, 0)).ok());
  // Presence flag out of range.
  Bytes bad_flag(9, 0);
  bad_flag[8] = 2;
  EXPECT_FALSE(DecodeKeywordManifestResponse(bad_flag).ok());
  // "Absent body" frames must carry nothing after the flag.
  Bytes trailing(12, 0);
  trailing[8] = 0;
  EXPECT_FALSE(DecodeKeywordManifestResponse(trailing).ok());
}

// --- Storage protocol (owner <-> provider) ----------------------------

struct StorageRig {
  storage::MemoryDisk disk{4, 64};
  StorageServer server{&disk};
  DirectTransport transport{&server};
};

TEST(KeywordManifestStorageTest, UnpublishedManifestIsAnError) {
  StorageRig rig;
  Result<KeywordManifest> fetched = FetchKeywordManifest(rig.transport);
  EXPECT_FALSE(fetched.ok());
  EXPECT_NE(fetched.status().ToString().find("no keyword manifest"),
            std::string::npos);
}

TEST(KeywordManifestStorageTest, FetchCacheAndRepublish) {
  StorageRig rig;
  const keyword::BuiltKeywordStore store = MakeStore(/*build_version=*/3);
  rig.server.PublishKeywordManifest(store.manifest, 3);

  // Cold fetch returns the full body, and the body parses back into a
  // working map.
  Result<KeywordManifest> fetched = FetchKeywordManifest(rig.transport);
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->version, 3u);
  EXPECT_EQ(fetched->manifest, store.manifest);
  auto map = keyword::KeywordMap::Deserialize(fetched->manifest);
  ASSERT_TRUE(map.ok()) << map.status();
  EXPECT_EQ((*map)->build_version(), 3u);

  // A current cache gets "not modified": version only, no body.
  Result<KeywordManifest> cached = FetchKeywordManifest(rig.transport, 3);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_EQ(cached->version, 3u);
  EXPECT_TRUE(cached->manifest.empty());

  // A rebuild bumps the version; the stale cache refetches the body.
  const keyword::BuiltKeywordStore rebuilt = MakeStore(/*build_version=*/4);
  rig.server.PublishKeywordManifest(rebuilt.manifest, 4);
  Result<KeywordManifest> stale = FetchKeywordManifest(rig.transport, 3);
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_EQ(stale->version, 4u);
  EXPECT_EQ(stale->manifest, rebuilt.manifest);
}

TEST(KeywordManifestStorageTest, RejectsMalformedRequestPayloads) {
  StorageRig rig;
  rig.server.PublishKeywordManifest(MakeStore(1).manifest, 1);

  // Truncated payload.
  Request truncated;
  truncated.op = Op::kKeywordManifest;
  truncated.payload = Bytes(5, 0);
  Result<Bytes> reply =
      rig.transport.RoundTrip(EncodeRequest(truncated));
  ASSERT_TRUE(reply.ok());
  Result<Bytes> decoded = DecodeResponse(*reply);
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("keyword-manifest"),
            std::string::npos);

  // Unknown request-format version.
  Request unknown = truncated;
  unknown.payload = EncodeKeywordManifestRequest(0);
  unknown.payload[0] = 0x7E;
  reply = rig.transport.RoundTrip(EncodeRequest(unknown));
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(DecodeResponse(*reply).ok());

  // A truncated raw frame never reaches the op dispatch.
  reply = rig.transport.RoundTrip(Bytes(3, 0));
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(DecodeResponse(*reply).ok());
}

// --- Sealed service protocol (client <-> secure hardware) -------------

constexpr size_t kPageSize = 32;

struct ServiceRig {
  std::unique_ptr<core::EngineStack> stack;
  /// The hub's engine must take concurrent calls; this serializes them.
  std::unique_ptr<core::ThreadSafeEngine> safe;
  std::unique_ptr<ServiceHub> hub;
  Bytes psk = Bytes(32, 0x66);

  static ServiceRig Make(uint64_t seed,
                         PirServiceServer::KeywordManifestProvider provider) {
    core::CApproxPir::Options options;
    options.num_pages = 40;
    options.page_size = kPageSize;
    options.cache_pages = 4;
    options.block_size = 8;
    ServiceRig rig;
    std::vector<storage::Page> pages;
    for (uint64_t id = 0; id < 40; ++id) {
      pages.emplace_back(id, Bytes(kPageSize, static_cast<uint8_t>(id + 1)));
    }
    rig.stack = test::LoadedStack(options, seed, pages);
    rig.safe = std::make_unique<core::ThreadSafeEngine>(&rig.stack->engine());
    rig.hub = std::make_unique<ServiceHub>(
        rig.safe.get(), rig.psk, seed + 1, /*metrics=*/nullptr,
        /*tracer=*/nullptr, /*admin=*/nullptr, std::move(provider));
    return rig;
  }
};

PirServiceClient MakeClient(ServiceRig& rig, uint64_t client_id,
                            uint64_t seed) {
  crypto::SecureRandom rng(seed);
  Bytes nonce(SecureSession::kNonceSize);
  rng.Fill(nonce);
  Result<Bytes> reply =
      rig.hub->HandleFrame(ServiceHub::MakeHello(client_id, nonce));
  SHPIR_CHECK(reply.ok());
  Result<SecureSession> session =
      ServiceHub::CompleteHandshake(*reply, rig.psk, client_id, nonce);
  SHPIR_CHECK(session.ok());
  ServiceHub* hub = rig.hub.get();
  return PirServiceClient(
      std::move(session).value(), [hub, client_id](ByteSpan record) {
        return hub->HandleFrame(ServiceHub::MakeData(client_id, record));
      });
}

TEST(KeywordManifestServiceTest, FetchAndCacheThroughSealedRecords) {
  const keyword::BuiltKeywordStore store = MakeStore(/*build_version=*/5);
  KeywordManifest published{store.manifest, 5};
  ServiceRig rig =
      ServiceRig::Make(1, [published]() { return published; });
  PirServiceClient client = MakeClient(rig, 101, 2);

  Result<KeywordManifest> fetched = client.FetchKeywordManifest();
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->version, 5u);
  EXPECT_EQ(fetched->manifest, store.manifest);
  ASSERT_TRUE(keyword::KeywordMap::Deserialize(fetched->manifest).ok());

  Result<KeywordManifest> cached = client.FetchKeywordManifest(5);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_EQ(cached->version, 5u);
  EXPECT_TRUE(cached->manifest.empty());
}

TEST(KeywordManifestServiceTest, NotEnabledIsAnError) {
  ServiceRig rig = ServiceRig::Make(3, nullptr);
  PirServiceClient client = MakeClient(rig, 7, 4);
  Result<KeywordManifest> fetched = client.FetchKeywordManifest();
  EXPECT_FALSE(fetched.ok());
  EXPECT_NE(fetched.status().ToString().find("no keyword manifest"),
            std::string::npos);
}

// Malformed KEYWORD_MANIFEST payloads inside an authenticated session
// must come back as clean in-protocol errors, not crashes or garbage.
TEST(KeywordManifestServiceTest, RejectsMalformedSealedPayloads) {
  const keyword::BuiltKeywordStore store = MakeStore(/*build_version=*/1);
  KeywordManifest published{store.manifest, 1};
  ServiceRig rig = ServiceRig::Make(5, [published]() { return published; });

  // Hand-rolled session pair so we can seal raw request plaintexts.
  crypto::SecureRandom rng(6);
  Bytes client_nonce(SecureSession::kNonceSize);
  Bytes server_nonce(SecureSession::kNonceSize);
  rng.Fill(client_nonce);
  rng.Fill(server_nonce);
  auto client_session =
      SecureSession::Establish(rig.psk, SecureSession::Role::kClient,
                               client_nonce, server_nonce);
  auto server_session =
      SecureSession::Establish(rig.psk, SecureSession::Role::kServer,
                               client_nonce, server_nonce);
  ASSERT_TRUE(client_session.ok());
  ASSERT_TRUE(server_session.ok());
  PirServiceServer server(&rig.stack->engine(),
                          std::move(server_session).value(),
                          /*tracer=*/nullptr, /*admin=*/nullptr,
                          [published]() { return published; });

  constexpr uint8_t kOpKeywordManifest = 10;
  constexpr uint8_t kStatusError = 1;
  for (const size_t bad_payload_size : {size_t{0}, size_t{5}, size_t{12}}) {
    Bytes plaintext(1 + 8 + bad_payload_size, 0);
    plaintext[0] = kOpKeywordManifest;
    Result<Bytes> record = client_session->Seal(plaintext);
    ASSERT_TRUE(record.ok());
    Result<Bytes> reply = server.HandleRecord(*record);
    ASSERT_TRUE(reply.ok()) << reply.status();
    Result<Bytes> response = client_session->Open(*reply);
    ASSERT_TRUE(response.ok());
    ASSERT_FALSE(response->empty());
    EXPECT_EQ((*response)[0], kStatusError)
        << "payload size " << bad_payload_size << " was accepted";
  }

  // Unknown request-format version, correct size.
  Bytes plaintext(1 + 8 + 9, 0);
  plaintext[0] = kOpKeywordManifest;
  plaintext[9] = 0x7E;  // format byte of the keyword request payload.
  Result<Bytes> record = client_session->Seal(plaintext);
  ASSERT_TRUE(record.ok());
  Result<Bytes> reply = server.HandleRecord(*record);
  ASSERT_TRUE(reply.ok());
  Result<Bytes> response = client_session->Open(*reply);
  ASSERT_TRUE(response.ok());
  ASSERT_FALSE(response->empty());
  EXPECT_EQ((*response)[0], kStatusError);
}

}  // namespace
}  // namespace shpir::net
