// Reproduces paper Figure 7: the two-party querying model over a 50ms
// WiFi-class link (1TB database). The paper measured a Boost.Asio +
// Crypto++ deployment on two machines; we (i) regenerate the series
// with the network-dominated cost model and (ii) run the actual
// two-party stack (owner-side engine, provider-side block store) at a
// reduced scale and report its accounted per-query costs.

#include <cstdio>

#include "bench/bench_util.h"
#include "crypto/secure_random.h"
#include "model/cost_model.h"
#include "net/owner_session.h"
#include "net/storage_server.h"

using shpir::model::FigurePoint;
using shpir::model::GenerateFig7;

namespace {

void LiveRunOne(uint64_t cache_pages) {
  using namespace shpir;
  constexpr size_t kPageSize = 1024;
  core::CApproxPir::Options options;
  options.num_pages = 5000;
  options.page_size = kPageSize;
  options.cache_pages = cache_pages;
  options.privacy_c = 2.0;
  auto slots = core::CApproxPir::DiskSlots(options);
  SHPIR_CHECK(slots.ok());
  storage::MemoryDisk provider_disk(
      *slots, storage::PageCipher::SealedSize(kPageSize));
  net::StorageServer server(&provider_disk);
  net::DirectTransport transport(&server);
  // The owner of shpir_owner; the sweep never saves its state.
  auto session = net::OwnerSession::Create(&transport, options, "fig7", "");
  SHPIR_CHECK(session.ok());
  core::CApproxPir& engine = (*session)->engine();
  hardware::SecureCoprocessor& cpu = (*session)->cpu();
  SHPIR_CHECK_OK(engine.Initialize({}));

  crypto::SecureRandom rng(8);
  const auto before = cpu.cost().Snapshot();
  constexpr int kQueries = 200;
  for (int i = 0; i < kQueries; ++i) {
    SHPIR_CHECK(engine.Retrieve(rng.UniformInt(5000)).ok());
  }
  const auto delta = cpu.cost().Snapshot() - before;
  std::printf("%8llu %8llu %8.3f %10.1f %12.1f %12.1f\n",
              (unsigned long long)cache_pages,
              (unsigned long long)engine.block_size(),
              engine.achieved_privacy(),
              static_cast<double>(delta.network_round_trips) / kQueries,
              static_cast<double>(delta.network_bytes) / kQueries / 1000.0,
              1000.0 *
                  hardware::CostAccountant::Seconds(delta, cpu.profile()) /
                  kQueries);
}

void LiveRun() {
  std::printf(
      "\nLive two-party sweep (scaled down: n = 5000 x 1KB pages, real\n"
      "stack over the wire protocol, accounted 50ms-RTT WiFi model):\n");
  std::printf("%8s %8s %8s %10s %12s %12s\n", "m", "k", "c", "RTT/query",
              "KB/query", "sim ms");
  for (uint64_t m : {100u, 200u, 400u, 800u}) {
    LiveRunOne(m);
  }
}

}  // namespace

int main() {
  std::printf("Figure 7: two-party model, 1TB database, 50ms RTT\n");
  std::printf("(model series; owner storage = pageMap + cache + block)\n");
  std::printf("%-10s %12s %14s %14s\n", "series", "cache m", "response (s)",
              "storage (GB)");
  std::string last;
  for (const FigurePoint& p : GenerateFig7()) {
    if (p.database != last) {
      std::printf("  --- Fig. 7 (%s, n = %llu) ---\n", p.database.c_str(),
                  (unsigned long long)p.n);
      last = p.database;
    }
    std::printf("%-10s %12llu %14.3f %14.2f\n", p.database.c_str(),
                (unsigned long long)p.m, p.response_seconds,
                p.storage_mb / 1000.0);
  }
  std::printf(
      "\nPaper spot checks: 0.737s at (1KB, m = 2e6, ~6GB storage);\n"
      "~1.3s at (10KB, m = 1e6, >10GB storage).\n");
  LiveRun();
  return 0;
}
