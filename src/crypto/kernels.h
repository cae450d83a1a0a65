#ifndef SHPIR_CRYPTO_KERNELS_H_
#define SHPIR_CRYPTO_KERNELS_H_

// The block kernels behind AesCtr::Crypt and Sha256's compression
// function, each in a portable form and an x86 hardware form (AES-NI,
// SHA-NI). AesCtr and Sha256 choose one form per process from CPUID;
// nothing else selects. This header is internal to the crypto module:
// it lets the tests and bench_crypto call both forms directly, so the
// portable fallback stays checked and priced on hosts that never pick
// it. On hosts other than x86 only the portable forms exist, the Has*
// probes return false, and the hardware entry points abort.

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace shpir::crypto::kernels {

/// Largest AES key schedule: 15 round keys of 16 bytes (AES-256).
inline constexpr size_t kMaxAesScheduleBytes = 240;

/// True when the CPU has AES-NI, SSSE3 and SSE4.1. Read from CPUID once
/// per process; always false off x86.
bool HasAesNi();

/// True when the CPU has the SHA extensions, SSSE3 and SSE4.1. Read from
/// CPUID once per process; always false off x86.
bool HasShaNi();

/// FIPS 197 key expansion of a 16-, 24- or 32-byte `key` (the caller
/// checks the length) into its (rounds + 1) round keys in byte order,
/// round r at bytes [16r, 16r + 16) of `schedule`. Returns the round
/// count (10, 12 or 14).
int ExpandAesKey(ByteSpan key, uint8_t schedule[kMaxAesScheduleBytes]);

/// CTR mode over `len` bytes: XORs `in` with the AES keystream of the
/// 16-byte initial counter block `iv`, which increments as one 128-bit
/// big-endian integer per block, into `out`. `out` may equal `in`; any
/// length works.
void AesCtrPortable(const Aes& aes, const uint8_t iv[16], const uint8_t* in,
                    uint8_t* out, size_t len);

/// The same keystream from AES-NI, eight counter blocks in flight, keyed
/// by a schedule from ExpandAesKey. Call only when HasAesNi().
void AesCtrHardware(const uint8_t* schedule, int rounds, const uint8_t iv[16],
                    const uint8_t* in, uint8_t* out, size_t len);

/// SHA-256 compression of `blocks` consecutive 64-byte blocks at `data`
/// into the chaining value `state` (a..h).
void Sha256BlocksPortable(uint32_t state[8], const uint8_t* data,
                          size_t blocks);

/// The same compression with SHA-NI. Call only when HasShaNi().
void Sha256BlocksHardware(uint32_t state[8], const uint8_t* data,
                          size_t blocks);

/// Two independent SHA-NI compressions, `blocks` blocks of `a` into
/// `state_a` and `blocks` blocks of `b` into `state_b`, interleaved
/// round by round so one chain's latency hides the other's. The same
/// chaining values as two Sha256BlocksHardware calls. Call only when
/// HasShaNi().
void Sha256BlocksHardwareX2(uint32_t state_a[8], const uint8_t* a,
                            uint32_t state_b[8], const uint8_t* b,
                            size_t blocks);

}  // namespace shpir::crypto::kernels

#endif  // SHPIR_CRYPTO_KERNELS_H_
