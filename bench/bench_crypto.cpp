// Microbenchmarks of the crypto substrate (google-benchmark): the
// paper's Table 2 budgets 10 MB/s for the coprocessor's crypto engine;
// these numbers characterize the crypto this build actually runs. The
// *Kernel benchmarks time the portable and the dispatched kernel of
// crypto/kernels.h side by side, so the fallback's speed stays visible
// on hosts whose CPU never selects it.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/check.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/ctr.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/secure_random.h"
#include "crypto/sha256.h"
#include "storage/page_cipher.h"

namespace {

using namespace shpir;

void BM_AesEncryptBlock(benchmark::State& state) {
  auto aes = crypto::Aes::Create(Bytes(16, 0x11));
  SHPIR_CHECK(aes.ok());
  uint8_t block[16] = {};
  for (auto _ : state) {
    aes->EncryptBlock(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

// Args: key bytes, message bytes. Pages use 32-byte keys.
void BM_AesCtr(benchmark::State& state) {
  auto ctr =
      crypto::AesCtr::Create(Bytes(static_cast<size_t>(state.range(0)), 0x22));
  SHPIR_CHECK(ctr.ok());
  Bytes data(static_cast<size_t>(state.range(1)), 0xab);
  const Bytes iv(16, 0x01);
  for (auto _ : state) {
    SHPIR_CHECK_OK(ctr->Crypt(iv, data, data));
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_AesCtr)
    ->ArgNames({"key", "bytes"})
    ->Args({16, 1024})
    ->Args({16, 10240})
    ->Args({32, 1024})
    ->Args({32, 10240});

// AES-256-CTR through one kernel: the portable one, or the one AesCtr
// dispatches to on this CPU (the label names it).
void BM_AesCtrKernel(benchmark::State& state, bool dispatched) {
  const Bytes key(32, 0x22);
  auto aes = crypto::Aes::Create(key);
  SHPIR_CHECK(aes.ok());
  uint8_t schedule[crypto::kernels::kMaxAesScheduleBytes];
  const int rounds = crypto::kernels::ExpandAesKey(key, schedule);
  const bool hardware = dispatched && crypto::kernels::HasAesNi();
  state.SetLabel(hardware ? "aes-ni" : "portable");
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  const Bytes iv(16, 0x01);
  for (auto _ : state) {
    if (hardware) {
      crypto::kernels::AesCtrHardware(schedule, rounds, iv.data(),
                                      data.data(), data.data(), data.size());
    } else {
      crypto::kernels::AesCtrPortable(*aes, iv.data(), data.data(),
                                      data.data(), data.size());
    }
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_AesCtrKernel, portable, false)->Arg(1024);
BENCHMARK_CAPTURE(BM_AesCtrKernel, dispatched, true)->Arg(1024);

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    auto digest = crypto::Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(10240);

// SHA-256 compression of whole blocks through one kernel, as above.
void BM_Sha256Kernel(benchmark::State& state, bool dispatched) {
  const bool hardware = dispatched && crypto::kernels::HasShaNi();
  state.SetLabel(hardware ? "sha-ni" : "portable");
  const Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  const size_t blocks = data.size() / crypto::Sha256::kBlockSize;
  uint32_t chaining[8] = {};
  for (auto _ : state) {
    if (hardware) {
      crypto::kernels::Sha256BlocksHardware(chaining, data.data(), blocks);
    } else {
      crypto::kernels::Sha256BlocksPortable(chaining, data.data(), blocks);
    }
    benchmark::DoNotOptimize(chaining);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_Sha256Kernel, portable, false)->Arg(1024);
BENCHMARK_CAPTURE(BM_Sha256Kernel, dispatched, true)->Arg(1024);

// The two-lane SHA-NI kernel over two messages of the given length;
// bytes/s counts both, so it compares with BM_Sha256Kernel/dispatched.
void BM_Sha256KernelTwoLane(benchmark::State& state) {
  if (!crypto::kernels::HasShaNi()) {
    state.SkipWithError("CPUID reports no SHA-NI");
    return;
  }
  state.SetLabel("sha-ni x2");
  const Bytes a(static_cast<size_t>(state.range(0)), 0x5a);
  const Bytes b(static_cast<size_t>(state.range(0)), 0xa5);
  const size_t blocks = a.size() / crypto::Sha256::kBlockSize;
  uint32_t chaining_a[8] = {};
  uint32_t chaining_b[8] = {};
  for (auto _ : state) {
    crypto::kernels::Sha256BlocksHardwareX2(chaining_a, a.data(), chaining_b,
                                            b.data(), blocks);
    benchmark::DoNotOptimize(chaining_a);
    benchmark::DoNotOptimize(chaining_b);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_Sha256KernelTwoLane)->Arg(1024);

void BM_HmacSha256(benchmark::State& state) {
  crypto::HmacSha256 mac(Bytes(32, 0x33));
  Bytes data(1024, 0x5a);
  for (auto _ : state) {
    auto tag = mac.Compute(data);
    benchmark::DoNotOptimize(tag);
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_HmacSha256);

// Two 1 KiB tags at once (HmacSha256::ComputePair); bytes/s counts both.
void BM_HmacSha256Pair(benchmark::State& state) {
  crypto::HmacSha256 mac(Bytes(32, 0x33));
  const Bytes a(1024, 0x5a);
  const Bytes b(1024, 0xa5);
  for (auto _ : state) {
    auto tags = mac.ComputePair(a, b);
    benchmark::DoNotOptimize(tags);
  }
  state.SetBytesProcessed(state.iterations() * 2 * 1024);
}
BENCHMARK(BM_HmacSha256Pair);

void BM_ChaCha20(benchmark::State& state) {
  auto cipher = crypto::ChaCha20::Create(Bytes(32, 0x44));
  SHPIR_CHECK(cipher.ok());
  Bytes data(1024, 0xab);
  const Bytes nonce(12, 0x01);
  for (auto _ : state) {
    SHPIR_CHECK_OK(cipher->Crypt(nonce, 0, data, data));
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ChaCha20);

void BM_SecureRandomFill(benchmark::State& state) {
  crypto::SecureRandom rng(1);
  Bytes data(1024);
  for (auto _ : state) {
    rng.Fill(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SecureRandomFill);

void BM_PageCipherSeal(benchmark::State& state) {
  const size_t page_size = static_cast<size_t>(state.range(0));
  auto cipher =
      storage::PageCipher::Create(Bytes(32, 0x01), Bytes(32, 0x02),
                                  page_size);
  SHPIR_CHECK(cipher.ok());
  crypto::SecureRandom rng(2);
  storage::Page page(7, Bytes(page_size, 0x77));
  for (auto _ : state) {
    auto sealed = cipher->Seal(page, rng);
    benchmark::DoNotOptimize(sealed);
  }
  state.SetBytesProcessed(state.iterations() * page_size);
}
BENCHMARK(BM_PageCipherSeal)->Arg(256)->Arg(1024)->Arg(10240);

void BM_PageCipherOpen(benchmark::State& state) {
  const size_t page_size = static_cast<size_t>(state.range(0));
  auto cipher =
      storage::PageCipher::Create(Bytes(32, 0x01), Bytes(32, 0x02),
                                  page_size);
  SHPIR_CHECK(cipher.ok());
  crypto::SecureRandom rng(3);
  storage::Page page(7, Bytes(page_size, 0x77));
  const Bytes sealed = *cipher->Seal(page, rng);
  for (auto _ : state) {
    auto opened = cipher->Open(sealed);
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(state.iterations() * page_size);
}
BENCHMARK(BM_PageCipherOpen)->Arg(256)->Arg(1024)->Arg(10240);

// The batch calls over one round's worth of pages (k+1 = 9 or 25) into
// kept buffers. The `page` counter is the time per page, to set beside
// BM_PageCipherSeal and BM_PageCipherOpen.
storage::PageCipher BatchCipher(size_t page_size) {
  auto cipher = storage::PageCipher::Create(Bytes(32, 0x01), Bytes(32, 0x02),
                                            page_size);
  SHPIR_CHECK(cipher.ok());
  return std::move(cipher).value();
}

void SetPerPage(benchmark::State& state, size_t pages, size_t page_size) {
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(pages * page_size));
  state.counters["page"] = benchmark::Counter(
      static_cast<double>(pages),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_PageCipherSealPages(benchmark::State& state) {
  const size_t page_size = static_cast<size_t>(state.range(0));
  const size_t count = static_cast<size_t>(state.range(1));
  const storage::PageCipher cipher = BatchCipher(page_size);
  crypto::SecureRandom rng(2);
  const std::vector<storage::Page> pages(
      count, storage::Page(7, Bytes(page_size, 0x77)));
  std::vector<Bytes> sealed(count);
  for (auto _ : state) {
    SHPIR_CHECK_OK(cipher.SealPages(pages, rng, sealed));
    benchmark::DoNotOptimize(sealed.data());
    benchmark::ClobberMemory();
  }
  SetPerPage(state, count, page_size);
}
BENCHMARK(BM_PageCipherSealPages)
    ->ArgNames({"bytes", "pages"})
    ->Args({256, 9})
    ->Args({256, 25})
    ->Args({1024, 9})
    ->Args({1024, 25});

void BM_PageCipherOpenPages(benchmark::State& state) {
  const size_t page_size = static_cast<size_t>(state.range(0));
  const size_t count = static_cast<size_t>(state.range(1));
  const storage::PageCipher cipher = BatchCipher(page_size);
  crypto::SecureRandom rng(3);
  const std::vector<storage::Page> pages(
      count, storage::Page(7, Bytes(page_size, 0x77)));
  std::vector<Bytes> sealed(count);
  SHPIR_CHECK_OK(cipher.SealPages(pages, rng, sealed));
  std::vector<storage::Page> opened(count);
  for (auto _ : state) {
    SHPIR_CHECK_OK(cipher.OpenPages(sealed, opened));
    benchmark::DoNotOptimize(opened.data());
    benchmark::ClobberMemory();
  }
  SetPerPage(state, count, page_size);
}
BENCHMARK(BM_PageCipherOpenPages)
    ->ArgNames({"bytes", "pages"})
    ->Args({256, 9})
    ->Args({256, 25})
    ->Args({1024, 9})
    ->Args({1024, 25});

}  // namespace

BENCHMARK_MAIN();
