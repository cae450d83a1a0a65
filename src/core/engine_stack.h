#ifndef SHPIR_CORE_ENGINE_STACK_H_
#define SHPIR_CORE_ENGINE_STACK_H_

#include <memory>
#include <optional>

#include "common/result.h"
#include "core/capprox_pir.h"
#include "hardware/coprocessor.h"
#include "hardware/profile.h"
#include "storage/access_trace.h"
#include "storage/disk.h"

namespace shpir::core {

/// One secure device driving one disk (the paper's Fig. 1): a
/// SecureCoprocessor and the CApproxPir engine on it, the one way to
/// build a single-engine stack. The stack loads no data: callers
/// Initialize() or RestoreState() the engine themselves.
class EngineStack {
 public:
  /// Builds the stack over `disk` (unowned; must outlive the stack),
  /// which must have CApproxPir::DiskSlots(options) slots of
  /// storage::PageCipher::SealedSize(options.page_size) bytes; a null
  /// `disk` makes the stack own a zeroed MemoryDisk of that geometry.
  /// A non-null `trace` (unowned; must outlive the stack) records every
  /// access through a TracingDisk and is marked by the engine once per
  /// client operation. `seed` seeds the device (nullopt: OS entropy).
  static Result<std::unique_ptr<EngineStack>> Create(
      const CApproxPir::Options& options,
      const hardware::HardwareProfile& profile, std::optional<uint64_t> seed,
      storage::Disk* disk = nullptr, storage::AccessTrace* trace = nullptr);

  CApproxPir& engine() { return *engine_; }
  hardware::SecureCoprocessor& cpu() { return *cpu_; }

  EngineStack(const EngineStack&) = delete;
  EngineStack& operator=(const EngineStack&) = delete;

 private:
  EngineStack() = default;

  // Destroyed bottom-up: the engine returns its secure memory to the
  // device before the device goes, and both go before the disks.
  std::unique_ptr<storage::MemoryDisk> owned_disk_;  // Null over a caller's.
  std::unique_ptr<storage::TracingDisk> tracing_disk_;  // Null untraced.
  std::unique_ptr<hardware::SecureCoprocessor> cpu_;
  std::unique_ptr<CApproxPir> engine_;
};

}  // namespace shpir::core

#endif  // SHPIR_CORE_ENGINE_STACK_H_
