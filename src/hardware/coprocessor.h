#ifndef SHPIR_HARDWARE_COPROCESSOR_H_
#define SHPIR_HARDWARE_COPROCESSOR_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "crypto/secure_random.h"
#include "hardware/cost_accountant.h"
#include "hardware/profile.h"
#include "obs/metrics.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "storage/page_cipher.h"

namespace shpir::hardware {

/// Simulated tamper-resistant coprocessor (the paper's IBM 4764).
///
/// The object models the *trusted boundary*: encryption keys and the RNG
/// live inside it; every interaction with the untrusted disk is accounted
/// (seeks, bytes over the device link, bytes through the crypto engine)
/// so that simulated query times can be derived from a HardwareProfile.
/// Secure memory is a budget: engines reserve what their data structures
/// need and creation fails when the device is too small, mirroring the
/// paper's capacity analysis (Eq. 7).
class SecureCoprocessor {
 public:
  /// Creates a coprocessor attached to `disk` (unowned; must outlive the
  /// device). The page key is generated internally. `seed` makes all
  /// device randomness reproducible; nullopt seeds from OS entropy.
  /// `page_size` is the database page payload size B. A disk whose slots
  /// are not storage::PageCipher::SealedSize(B) bytes is refused.
  static Result<std::unique_ptr<SecureCoprocessor>> Create(
      const HardwareProfile& profile, storage::Disk* disk, size_t page_size,
      std::optional<uint64_t> seed = std::nullopt);

  /// --- Secure memory budget -------------------------------------------

  /// Reserves `bytes` of secure memory; ResourceExhausted if it does not
  /// fit. `what` names the data structure for error messages.
  Status ReserveSecureMemory(uint64_t bytes, const std::string& what);

  /// Returns a reservation.
  void ReleaseSecureMemory(uint64_t bytes);

  uint64_t secure_memory_used() const { return secure_memory_used_; }
  uint64_t secure_memory_capacity() const {
    return profile_.secure_memory_bytes;
  }

  /// --- Accounted disk access -------------------------------------------

  /// Reads `count` consecutive slots starting at `start`: one seek plus a
  /// sequential transfer, all slots crossing the device link.
  Status ReadRun(storage::Location start, uint64_t count,
                 std::vector<Bytes>& out);

  /// Writes consecutive slots starting at `start`: one seek plus transfer.
  Status WriteRun(storage::Location start, const std::vector<Bytes>& slots);

  /// Reads a single slot (one seek).
  Result<Bytes> ReadSlot(storage::Location loc);

  /// Writes a single slot (one seek).
  Status WriteSlot(storage::Location loc, ByteSpan data);

  /// Reads a round's k-slot run and extra slot (extra last in `out`) in
  /// one disk call, accounted exactly as ReadRun plus ReadSlot: two
  /// seeks and k+1 slots over disk and link.
  Status ReadPlan(const storage::IoPlan& plan, std::vector<Bytes>& out);

  /// Writes a round's k-slot run and extra slot in one disk call,
  /// accounted exactly as WriteRun plus WriteSlot.
  Status WritePlan(const storage::IoPlan& plan, const std::vector<Bytes>& run,
                   ByteSpan extra_slot);

  /// --- Accounted crypto -------------------------------------------------

  /// Seals left under the current page key: profile().max_seals_per_key
  /// less the pages sealed since the key was drawn.
  uint64_t seals_left() const {
    return profile_.max_seals_per_key - seals_under_key_;
  }

  /// ResourceExhausted unless `pages` more pages fit under the current
  /// page key. Every seal checks it first, and seals nothing past the
  /// budget; callers that must not stop halfway (a round) check first.
  Status CheckSealBudget(uint64_t pages) const;

  /// Encrypts a page with a fresh nonce; accounts crypto throughput.
  Result<Bytes> SealPage(const storage::Page& page);

  /// Verifies and decrypts a sealed page; accounts crypto throughput.
  Result<storage::Page> OpenPage(ByteSpan sealed);

  /// Seals `pages[i]` into `out[i]` with fresh nonces, reusing the
  /// buffers `out` holds (storage::PageCipher::SealPages). Accounted
  /// exactly as pages.size() SealPage calls, in one update.
  Status SealPages(std::span<const storage::Page> pages,
                   std::span<Bytes> out);

  /// Verifies and decrypts `sealed[i]` into `out[i]`, reusing the page
  /// buffers `out` holds (storage::PageCipher::OpenPages). Accounted
  /// exactly as sealed.size() OpenPage calls, in one update.
  Status OpenPages(std::span<const Bytes> sealed,
                   std::span<storage::Page> out);

  /// Ciphertext slot size for this device's page cipher.
  size_t sealed_size() const { return cipher_.sealed_size(); }
  size_t page_size() const { return cipher_.page_size(); }

  /// Replaces the device's page keys with fresh ones drawn from its
  /// RNG and restarts the seal budget. Pages sealed under the old keys
  /// become unreadable — callers (CApproxPir::RotateKeys) must re-seal
  /// everything in the same pass.
  Status InstallFreshKeys();

  /// --- Observability -----------------------------------------------------

  /// Bridges the device's cost accounting into `registry` (unowned; must
  /// outlive the device): every accounted seek/byte also bumps aggregate
  /// shpir_hw_* counters, and shpir_hw_simulated_seconds is kept in sync
  /// with ElapsedSeconds(). Only volume aggregates leave the device —
  /// never locations, page ids or per-request data. Pass nullptr to
  /// detach.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// --- Device internals --------------------------------------------------

  crypto::SecureRandom& rng() { return rng_; }
  CostAccountant& cost() { return cost_; }
  const CostAccountant& cost() const { return cost_; }
  const HardwareProfile& profile() const { return profile_; }
  storage::Disk* disk() { return disk_; }

  /// Simulated seconds for everything the device has done so far.
  double ElapsedSeconds() const { return cost_.Seconds(profile_); }

 private:
  SecureCoprocessor(const HardwareProfile& profile, storage::Disk* disk,
                    storage::PageCipher cipher, crypto::SecureRandom rng)
      : profile_(profile),
        disk_(disk),
        cipher_(std::move(cipher)),
        rng_(std::move(rng)) {}

  /// Draws the page key from `rng` and builds the page cipher under it.
  static Result<storage::PageCipher> DrawCipher(crypto::SecureRandom& rng,
                                                size_t page_size);

  /// Aggregate instruments mirroring the CostAccountant; all null until
  /// AttachMetrics().
  struct Instruments {
    obs::Counter* seeks = nullptr;
    obs::Counter* disk_bytes = nullptr;
    obs::Counter* link_bytes = nullptr;
    obs::Counter* crypto_bytes = nullptr;
    obs::Counter* pages_sealed = nullptr;
    obs::Counter* pages_opened = nullptr;
    obs::Gauge* simulated_seconds = nullptr;
    obs::Gauge* secure_memory_used = nullptr;
    obs::Gauge* secure_memory_capacity = nullptr;
  };

  bool metered() const { return instruments_.seeks != nullptr; }
  /// Accounts one disk access: a seek moving `bytes` over disk and
  /// link, mirrored into the instruments.
  void ChargeIo(uint64_t bytes);
  /// Accounts `pages` pages through the crypto engine, mirrored into the
  /// instruments with `pages_counter` (pages_sealed or pages_opened).
  void ChargeCrypto(uint64_t pages, obs::Counter* pages_counter);

  HardwareProfile profile_;
  storage::Disk* disk_;
  storage::PageCipher cipher_;
  crypto::SecureRandom rng_;
  CostAccountant cost_;
  uint64_t secure_memory_used_ = 0;
  uint64_t seals_under_key_ = 0;  // Pages sealed under cipher_'s key.
  Instruments instruments_;
};

}  // namespace shpir::hardware

#endif  // SHPIR_HARDWARE_COPROCESSOR_H_
