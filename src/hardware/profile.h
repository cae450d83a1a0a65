#ifndef SHPIR_HARDWARE_PROFILE_H_
#define SHPIR_HARDWARE_PROFILE_H_

#include <cstdint>

namespace shpir::hardware {

/// Decimal units, matching the paper's figures (1KB page = 1000 bytes,
/// 1GB database = 1e9 bytes).
inline constexpr uint64_t kKB = 1000;
inline constexpr uint64_t kMB = 1000 * 1000;
inline constexpr uint64_t kGB = 1000 * 1000 * 1000;
inline constexpr uint64_t kTB = 1000ull * 1000 * 1000 * 1000;

/// Performance characteristics of the secure hardware deployment,
/// parameterized exactly as the paper's Table 2.
struct HardwareProfile {
  /// Disk seek time t_s (seconds).
  double seek_time_s = 0.005;
  /// Disk sequential read/write rate r_d (bytes/second).
  double disk_rate = 100.0 * kMB;
  /// Secure-hardware link bandwidth r_l (bytes/second).
  double link_rate = 80.0 * kMB;
  /// Encryption/decryption throughput r_enc (bytes/second).
  double crypto_rate = 10.0 * kMB;
  /// Secure memory capacity (bytes); 64MB for one IBM 4764.
  uint64_t secure_memory_bytes = 64 * kMB;
  /// Pages the device seals under one page key before it refuses to
  /// seal more: SP 800-38D §8.3's cap of 2^32 for GCM with random 96-bit
  /// nonces. A fresh key (SecureCoprocessor::InstallFreshKeys) restarts
  /// the count.
  uint64_t max_seals_per_key = uint64_t{1} << 32;

  /// Two-party model parameters (zero in the three-party model): network
  /// round-trip time and transfer rate between owner and provider.
  double network_rtt_s = 0.0;
  double network_rate = 0.0;

  /// The paper's Table 2 configuration: one IBM 4764 coprocessor.
  static HardwareProfile Ibm4764();

  /// A modern (c. 2026) trusted-execution deployment: NVMe storage
  /// (~100us access, 3 GB/s), PCIe-class link, AES-NI-rate crypto and
  /// 16GB of enclave-usable memory. Used by the extension benches to
  /// show how the scheme's trade-off shifts on current hardware.
  static HardwareProfile ModernTee();

  /// `units` coprocessors combined for secure storage (the paper's
  /// multi-coprocessor deployments for 100GB/1TB databases). Throughput
  /// characteristics are unchanged; only capacity scales.
  static HardwareProfile Ibm4764Array(int units);

  /// Two-party model (§5, Fig. 7): owner-side commodity server with
  /// `memory_bytes` of storage, talking to the provider over a network
  /// with the given RTT and rate. Crypto runs at commodity-CPU speed.
  /// The default rate (2.46 MB/s) is calibrated so the model reproduces
  /// the paper's measured WiFi numbers (0.737s at n = 1e9, m = 2e6).
  static HardwareProfile TwoPartyOwner(uint64_t memory_bytes,
                                       double rtt_s = 0.050,
                                       double rate = 2.46 * kMB);
};

}  // namespace shpir::hardware

#endif  // SHPIR_HARDWARE_PROFILE_H_
