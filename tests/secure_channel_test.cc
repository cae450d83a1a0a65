#include "net/secure_channel.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.h"
#include "core/capprox_pir.h"
#include "crypto/secure_random.h"
#include "net/pir_service.h"
#include "test_stack.h"

namespace shpir::net {
namespace {

struct SessionPair {
  SecureSession client;
  SecureSession server;
};

SessionPair MakePair(const Bytes& psk = Bytes(32, 0x42)) {
  crypto::SecureRandom rng(1);
  Bytes client_nonce(SecureSession::kNonceSize);
  Bytes server_nonce(SecureSession::kNonceSize);
  rng.Fill(client_nonce);
  rng.Fill(server_nonce);
  Result<SecureSession> client = SecureSession::Establish(
      psk, SecureSession::Role::kClient, client_nonce, server_nonce);
  Result<SecureSession> server = SecureSession::Establish(
      psk, SecureSession::Role::kServer, client_nonce, server_nonce);
  SHPIR_CHECK(client.ok());
  SHPIR_CHECK(server.ok());
  return SessionPair{std::move(client).value(), std::move(server).value()};
}

TEST(SecureSessionTest, BidirectionalRoundTrip) {
  SessionPair pair = MakePair();
  const Bytes request = {1, 2, 3, 4, 5};
  Result<Bytes> sealed = pair.client.Seal(request);
  ASSERT_TRUE(sealed.ok());
  Result<Bytes> opened = pair.server.Open(*sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, request);

  const Bytes response = {9, 8, 7};
  Result<Bytes> sealed_back = pair.server.Seal(response);
  ASSERT_TRUE(sealed_back.ok());
  Result<Bytes> opened_back = pair.client.Open(*sealed_back);
  ASSERT_TRUE(opened_back.ok());
  EXPECT_EQ(*opened_back, response);
}

TEST(SecureSessionTest, ManyMessagesKeepSequence) {
  SessionPair pair = MakePair();
  for (int i = 0; i < 100; ++i) {
    Bytes msg(10, static_cast<uint8_t>(i));
    Result<Bytes> sealed = pair.client.Seal(msg);
    ASSERT_TRUE(sealed.ok());
    Result<Bytes> opened = pair.server.Open(*sealed);
    ASSERT_TRUE(opened.ok()) << i << ": " << opened.status();
    EXPECT_EQ(*opened, msg);
  }
  EXPECT_EQ(pair.client.send_sequence(), 100u);
  EXPECT_EQ(pair.server.recv_sequence(), 100u);
}

TEST(SecureSessionTest, ReplayRejected) {
  SessionPair pair = MakePair();
  Bytes sealed = *pair.client.Seal(Bytes{1});
  ASSERT_TRUE(pair.server.Open(sealed).ok());
  Result<Bytes> replayed = pair.server.Open(sealed);
  EXPECT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kDataLoss);
}

TEST(SecureSessionTest, ReorderingRejected) {
  SessionPair pair = MakePair();
  Bytes first = *pair.client.Seal(Bytes{1});
  Bytes second = *pair.client.Seal(Bytes{2});
  EXPECT_FALSE(pair.server.Open(second).ok());
  // The in-order record still works.
  EXPECT_TRUE(pair.server.Open(first).ok());
}

TEST(SecureSessionTest, TamperingRejected) {
  SessionPair pair = MakePair();
  Bytes sealed = *pair.client.Seal(Bytes(32, 0x11));
  for (size_t pos : {size_t{0}, size_t{10}, sealed.size() - 1}) {
    Bytes tampered = sealed;
    tampered[pos] ^= 1;
    EXPECT_FALSE(pair.server.Open(tampered).ok()) << pos;
  }
}

TEST(SecureSessionTest, WrongPskCannotTalk) {
  crypto::SecureRandom rng(2);
  Bytes cn(16), sn(16);
  rng.Fill(cn);
  rng.Fill(sn);
  auto client = SecureSession::Establish(Bytes(32, 0x01),
                                         SecureSession::Role::kClient, cn, sn);
  auto server = SecureSession::Establish(Bytes(32, 0x02),
                                         SecureSession::Role::kServer, cn, sn);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(server.ok());
  Bytes sealed = *client->Seal(Bytes{1, 2, 3});
  EXPECT_FALSE(server->Open(sealed).ok());
}

TEST(SecureSessionTest, DirectionsUseDistinctKeys) {
  SessionPair pair = MakePair();
  // A record sealed by the client must not open as a server record on
  // the client itself (directional keys differ).
  Bytes sealed = *pair.client.Seal(Bytes{5});
  EXPECT_FALSE(pair.client.Open(sealed).ok());
}

TEST(SecureSessionTest, Validation) {
  EXPECT_FALSE(SecureSession::Establish(Bytes{}, SecureSession::Role::kClient,
                                        Bytes(16, 0), Bytes(16, 0))
                   .ok());
  EXPECT_FALSE(SecureSession::Establish(Bytes(32, 1),
                                        SecureSession::Role::kClient,
                                        Bytes(15, 0), Bytes(16, 0))
                   .ok());
}

TEST(PirServiceTest, EndToEndThreePartyModel) {
  // Full Fig. 1: client <-> (relay) <-> secure hardware hosting the
  // engine. The relay (this test) sees only sealed records.
  constexpr size_t kPageSize = 32;
  core::CApproxPir::Options options;
  options.num_pages = 30;
  options.page_size = kPageSize;
  options.cache_pages = 4;
  options.block_size = 5;
  options.insert_reserve = 4;
  std::vector<storage::Page> pages;
  for (uint64_t id = 0; id < 30; ++id) {
    pages.emplace_back(id, Bytes(kPageSize, static_cast<uint8_t>(id + 1)));
  }
  auto stack = test::LoadedStack(options, 3, pages);
  core::CApproxPir& engine = stack->engine();

  SessionPair sessions = MakePair();
  PirServiceServer server(&engine, std::move(sessions.server));
  PirServiceClient client(
      std::move(sessions.client),
      [&server](ByteSpan record) { return server.HandleRecord(record); });

  // Retrieve.
  Result<Bytes> data = client.Retrieve(7);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, Bytes(kPageSize, 8));
  // Modify.
  ASSERT_TRUE(client.Modify(7, Bytes(kPageSize, 0xEE)).ok());
  EXPECT_EQ(*client.Retrieve(7), Bytes(kPageSize, 0xEE));
  // Insert.
  Result<storage::PageId> id = client.Insert(Bytes(kPageSize, 0xAB));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*client.Retrieve(*id), Bytes(kPageSize, 0xAB));
  // Remove.
  ASSERT_TRUE(client.Remove(3).ok());
  Result<Bytes> gone = client.Retrieve(3);
  EXPECT_FALSE(gone.ok());
  EXPECT_NE(gone.status().message().find("NOT_FOUND"), std::string::npos);
}

TEST(PirServiceTest, MalformedRecordsRejected) {
  constexpr size_t kPageSize = 32;
  core::CApproxPir::Options options;
  options.num_pages = 10;
  options.page_size = kPageSize;
  options.cache_pages = 2;
  options.block_size = 2;
  auto stack = test::LoadedStack(options, 4);
  core::CApproxPir& engine = stack->engine();

  SessionPair sessions = MakePair();
  PirServiceServer server(&engine, std::move(sessions.server));
  // Garbage that is not even a valid record.
  EXPECT_FALSE(server.HandleRecord(Bytes(3, 0)).ok());
  EXPECT_FALSE(server.HandleRecord(Bytes(100, 0x55)).ok());
}

// Pins the record format: a fixed pre-shared key and handshake nonces
// must seal fixed records to the bytes captured before the AES-NI and
// SHA-NI kernels existed.
TEST(SecureSessionTest, SealMatchesGoldenBytes) {
  const Bytes client_nonce(SecureSession::kNonceSize, 0x11);
  const Bytes server_nonce(SecureSession::kNonceSize, 0x22);
  Result<SecureSession> client = SecureSession::Establish(
      AsBytes("golden psk"), SecureSession::Role::kClient, client_nonce,
      server_nonce);
  Result<SecureSession> server = SecureSession::Establish(
      AsBytes("golden psk"), SecureSession::Role::kServer, client_nonce,
      server_nonce);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(server.ok());
  Bytes first(150);
  for (size_t i = 0; i < first.size(); ++i) {
    first[i] = static_cast<uint8_t>(i);
  }
  const Bytes second = {'p', 'i', 'r'};
  const std::string golden_first =
      "00000000000000001dc3a7626ef84a81a9ce66dbc665fb84f0bdafb60738af75"
      "d60832127ffa0704c31056c9c05c3a5e8bc730b0568299bfec806864bf640cbb"
      "3cc5b5a64eeed2aa106b45595db5e1e561d0131517f605e5b2e798f1f2d04fde"
      "16e67e24fe74810eb0273d8bf0ffc1c9b71420cc880c5b8fe502377cf1f2bc21"
      "b245d6006b11ccb7133b2be992bd328de0ece7f6a076bdaea53ada72757172cb"
      "1e9b685f908472d67186cfe1af7e6c99f23546ab91fedb4aae7594f9eed5";
  const std::string golden_second =
      "01000000000000000cf94dc135007a44c143a3d1b860f3fbbc981ccb08d1791e"
      "619e2acfc750f15fe09815";
  Result<Bytes> sealed_first = client->Seal(first);
  Result<Bytes> sealed_second = client->Seal(second);
  ASSERT_TRUE(sealed_first.ok());
  ASSERT_TRUE(sealed_second.ok());
  EXPECT_EQ(HexEncode(*sealed_first), golden_first);
  EXPECT_EQ(HexEncode(*sealed_second), golden_second);
  EXPECT_EQ(*server->Open(HexDecode(golden_first)), first);
  EXPECT_EQ(*server->Open(HexDecode(golden_second)), second);
}

}  // namespace
}  // namespace shpir::net
