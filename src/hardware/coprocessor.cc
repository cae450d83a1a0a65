#include "hardware/coprocessor.h"

#include <string>

namespace shpir::hardware {

Result<storage::PageCipher> SecureCoprocessor::DrawCipher(
    crypto::SecureRandom& rng, size_t page_size) {
  // 64 bytes are drawn and the first 32 key AES-256-GCM. The draw is the
  // one the earlier AES-CTR + HMAC-SHA-256 format took for its two keys,
  // so every later draw (nonces, the block starts r and s, the extra
  // page) falls where it did, and seeded AccessTraces stay byte for byte
  // the same.
  Bytes key_material(64);
  rng.Fill(key_material);
  return storage::PageCipher::Create(ByteSpan(key_material).first(32),
                                     page_size);
}

Result<std::unique_ptr<SecureCoprocessor>> SecureCoprocessor::Create(
    const HardwareProfile& profile, storage::Disk* disk, size_t page_size,
    std::optional<uint64_t> seed) {
  if (disk == nullptr) {
    return InvalidArgumentError("coprocessor requires a disk");
  }
  if (profile.max_seals_per_key > (uint64_t{1} << 32)) {
    return InvalidArgumentError(
        "max_seals_per_key exceeds SP 800-38D's 2^32 seals per GCM key");
  }
  crypto::SecureRandom rng =
      seed.has_value() ? crypto::SecureRandom(*seed) : crypto::SecureRandom();
  SHPIR_ASSIGN_OR_RETURN(storage::PageCipher cipher,
                         DrawCipher(rng, page_size));
  // A disk sealed in another format has other slot sizes (B + 52 bytes
  // under AES-CTR + HMAC-SHA-256): this check is the format's version
  // check.
  if (disk->slot_size() != cipher.sealed_size()) {
    return InvalidArgumentError(
        "disk slot size " + std::to_string(disk->slot_size()) +
        " does not match the sealed page size " +
        std::to_string(cipher.sealed_size()) + " for " +
        std::to_string(page_size) + "-byte pages");
  }
  return std::unique_ptr<SecureCoprocessor>(new SecureCoprocessor(
      profile, disk, std::move(cipher), std::move(rng)));
}

void SecureCoprocessor::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  instruments_.seeks = registry->FindOrCreateCounter("shpir_hw_seeks_total");
  instruments_.disk_bytes =
      registry->FindOrCreateCounter("shpir_hw_disk_bytes_total");
  instruments_.link_bytes =
      registry->FindOrCreateCounter("shpir_hw_link_bytes_total");
  instruments_.crypto_bytes =
      registry->FindOrCreateCounter("shpir_hw_crypto_bytes_total");
  instruments_.pages_sealed =
      registry->FindOrCreateCounter("shpir_hw_pages_sealed_total");
  instruments_.pages_opened =
      registry->FindOrCreateCounter("shpir_hw_pages_opened_total");
  instruments_.simulated_seconds =
      registry->FindOrCreateGauge("shpir_hw_simulated_seconds");
  instruments_.secure_memory_used =
      registry->FindOrCreateGauge("shpir_hw_secure_memory_used_bytes");
  instruments_.secure_memory_capacity =
      registry->FindOrCreateGauge("shpir_hw_secure_memory_capacity_bytes");
  instruments_.simulated_seconds->Set(cost_.Seconds(profile_));
  instruments_.secure_memory_used->Set(
      static_cast<double>(secure_memory_used_));
  instruments_.secure_memory_capacity->Set(
      static_cast<double>(profile_.secure_memory_bytes));
}

void SecureCoprocessor::ChargeIo(uint64_t bytes) {
  cost_.AddSeeks(1);
  cost_.AddDiskBytes(bytes);
  cost_.AddLinkBytes(bytes);
  if (!metered()) {
    return;
  }
  instruments_.seeks->Increment();
  // shpir-lint-allow-next-line(secret-log): I/O byte volume is a slot-size multiple, a public parameter; metering it is the paper's computational-cost accounting (Eq. 5)
  instruments_.disk_bytes->Increment(bytes);
  // shpir-lint-allow-next-line(secret-log): same public byte volume mirrored to the link counter
  instruments_.link_bytes->Increment(bytes);
  instruments_.simulated_seconds->Set(cost_.Seconds(profile_));
}

Status SecureCoprocessor::ReserveSecureMemory(uint64_t bytes,
                                              const std::string& what) {
  if (secure_memory_used_ + bytes > profile_.secure_memory_bytes) {
    return ResourceExhaustedError(
        "secure memory exhausted reserving " + std::to_string(bytes) +
        " bytes for " + what + " (used " +
        std::to_string(secure_memory_used_) + " of " +
        std::to_string(profile_.secure_memory_bytes) + ")");
  }
  secure_memory_used_ += bytes;
  if (metered()) {
    instruments_.secure_memory_used->Set(
        static_cast<double>(secure_memory_used_));
  }
  return OkStatus();
}

void SecureCoprocessor::ReleaseSecureMemory(uint64_t bytes) {
  secure_memory_used_ = bytes > secure_memory_used_
                            ? 0
                            : secure_memory_used_ - bytes;
  if (metered()) {
    instruments_.secure_memory_used->Set(
        static_cast<double>(secure_memory_used_));
  }
}

Status SecureCoprocessor::ReadRun(storage::Location start, uint64_t count,
                                  std::vector<Bytes>& out) {
  ChargeIo(count * disk_->slot_size());
  return disk_->ReadRun(start, count, out);
}

Status SecureCoprocessor::WriteRun(storage::Location start,
                                   const std::vector<Bytes>& slots) {
  ChargeIo(slots.size() * disk_->slot_size());
  return disk_->WriteRun(start, slots);
}

Result<Bytes> SecureCoprocessor::ReadSlot(storage::Location loc) {
  ChargeIo(disk_->slot_size());
  Bytes out(disk_->slot_size());
  SHPIR_RETURN_IF_ERROR(disk_->Read(loc, out));
  return out;
}

Status SecureCoprocessor::WriteSlot(storage::Location loc, ByteSpan data) {
  ChargeIo(disk_->slot_size());
  return disk_->Write(loc, data);
}

Status SecureCoprocessor::ReadPlan(const storage::IoPlan& plan,
                                   std::vector<Bytes>& out) {
  ChargeIo(plan.k * disk_->slot_size());
  ChargeIo(disk_->slot_size());
  return disk_->ReadPlan(plan, out);
}

Status SecureCoprocessor::WritePlan(const storage::IoPlan& plan,
                                    const std::vector<Bytes>& run,
                                    ByteSpan extra_slot) {
  ChargeIo(run.size() * disk_->slot_size());
  ChargeIo(disk_->slot_size());
  return disk_->WritePlan(plan, run, extra_slot);
}

Status SecureCoprocessor::InstallFreshKeys() {
  SHPIR_ASSIGN_OR_RETURN(storage::PageCipher cipher,
                         DrawCipher(rng_, cipher_.page_size()));
  cipher_ = std::move(cipher);
  seals_under_key_ = 0;
  return OkStatus();
}

Status SecureCoprocessor::CheckSealBudget(uint64_t pages) const {
  // Past the budget, random nonces collide too often: a collision under
  // GCM gives the store the GHASH key, and with it every page's tag.
  if (pages > seals_left()) {
    return ResourceExhaustedError(
        "page key has sealed " + std::to_string(seals_under_key_) +
        " pages of its " + std::to_string(profile_.max_seals_per_key) +
        "; rotate the key (CApproxPir::RotateKeys) to seal " +
        std::to_string(pages) + " more");
  }
  return OkStatus();
}

void SecureCoprocessor::ChargeCrypto(uint64_t pages,
                                     obs::Counter* pages_counter) {
  const uint64_t bytes = pages * cipher_.page_size();
  cost_.AddCryptoBytes(bytes);
  if (!metered()) {
    return;
  }
  instruments_.crypto_bytes->Increment(bytes);
  pages_counter->Increment(pages);
  instruments_.simulated_seconds->Set(cost_.Seconds(profile_));
}

Result<Bytes> SecureCoprocessor::SealPage(const storage::Page& page) {
  SHPIR_RETURN_IF_ERROR(CheckSealBudget(1));
  ChargeCrypto(1, instruments_.pages_sealed);
  ++seals_under_key_;
  return cipher_.Seal(page, rng_);
}

Result<storage::Page> SecureCoprocessor::OpenPage(ByteSpan sealed) {
  ChargeCrypto(1, instruments_.pages_opened);
  return cipher_.Open(sealed);
}

Status SecureCoprocessor::SealPages(std::span<const storage::Page> pages,
                                    std::span<Bytes> out) {
  SHPIR_RETURN_IF_ERROR(CheckSealBudget(pages.size()));
  ChargeCrypto(pages.size(), instruments_.pages_sealed);
  seals_under_key_ += pages.size();
  return cipher_.SealPages(pages, rng_, out);
}

Status SecureCoprocessor::OpenPages(std::span<const Bytes> sealed,
                                    std::span<storage::Page> out) {
  ChargeCrypto(sealed.size(), instruments_.pages_opened);
  return cipher_.OpenPages(sealed, out);
}

}  // namespace shpir::hardware
