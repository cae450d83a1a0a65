// Quickstart: build a small private page store, query it, and inspect
// what the scheme costs and what the adversary sees.
//
//   ./quickstart

#include <cstdio>

#include "common/check.h"
#include "core/engine_stack.h"
#include "crypto/secure_random.h"
#include "storage/access_trace.h"

int main() {
  using namespace shpir;

  // 1. Describe the deployment: 4096 pages of 1KB, a cache of 256
  //    pages, and a privacy target of c = 2 (no disk location may be
  //    more than twice as likely as any other to receive a page).
  core::CApproxPir::Options options;
  options.num_pages = 4096;
  options.page_size = 1024;
  options.cache_pages = 256;
  options.privacy_c = 2.0;

  // 2. Assemble the stack: the simulated tamper-resistant coprocessor,
  //    holding all keys, over an in-memory untrusted disk, with an
  //    access trace playing the role of the adversary's notebook.
  storage::AccessTrace trace;
  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), std::nullopt, nullptr,
      &trace);
  SHPIR_CHECK(stack.ok());
  core::CApproxPir& engine = (*stack)->engine();
  hardware::SecureCoprocessor& cpu = (*stack)->cpu();

  // 3. Load the database: page i holds a recognizable payload.
  std::vector<storage::Page> pages;
  for (uint64_t id = 0; id < options.num_pages; ++id) {
    Bytes data(options.page_size, static_cast<uint8_t>(id % 251));
    pages.emplace_back(id, std::move(data));
  }
  SHPIR_CHECK_OK(engine.Initialize(pages));

  std::printf("database:        %llu pages x %zu B\n",
              (unsigned long long)options.num_pages, options.page_size);
  std::printf("block size k:    %llu (scan period T = %llu)\n",
              (unsigned long long)engine.block_size(),
              (unsigned long long)engine.scan_period());
  std::printf("achieved c:      %.4f (requested %.1f)\n\n",
              engine.achieved_privacy(), options.privacy_c);

  // 4. Query privately. Every call costs the same 4 seeks + 2(k+1)
  //    page transfers, no matter which page is asked or whether it was
  //    cached.
  crypto::SecureRandom rng(7);
  const auto before = cpu.cost().Snapshot();
  constexpr int kQueries = 1000;
  for (int i = 0; i < kQueries; ++i) {
    const uint64_t id = rng.UniformInt(options.num_pages);
    Result<Bytes> data = engine.Retrieve(id);
    SHPIR_CHECK(data.ok());
    SHPIR_CHECK((*data)[0] == static_cast<uint8_t>(id % 251));
  }
  const auto delta = cpu.cost().Snapshot() - before;
  const double seconds = hardware::CostAccountant::Seconds(
      delta, cpu.profile());

  std::printf("%d queries, all payloads verified.\n", kQueries);
  std::printf("simulated time:  %.3f s total, %.3f ms/query (constant)\n",
              seconds, 1000.0 * seconds / kQueries);
  std::printf("cache hits:      %llu, block hits: %llu\n",
              (unsigned long long)engine.stats().cache_hits,
              (unsigned long long)engine.stats().block_hits);
  std::printf("adversary saw:   %zu disk accesses, all ciphertext\n",
              trace.events().size());
  return 0;
}
