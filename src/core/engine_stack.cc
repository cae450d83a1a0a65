#include "core/engine_stack.h"

#include "storage/page_cipher.h"

namespace shpir::core {

Result<std::unique_ptr<EngineStack>> EngineStack::Create(
    const CApproxPir::Options& options,
    const hardware::HardwareProfile& profile, std::optional<uint64_t> seed,
    storage::Disk* disk, storage::AccessTrace* trace) {
  std::unique_ptr<EngineStack> stack(new EngineStack());
  if (disk == nullptr) {
    SHPIR_ASSIGN_OR_RETURN(uint64_t slots, CApproxPir::DiskSlots(options));
    stack->owned_disk_ = std::make_unique<storage::MemoryDisk>(
        slots, storage::PageCipher::SealedSize(options.page_size));
    disk = stack->owned_disk_.get();
  }
  if (trace != nullptr) {
    stack->tracing_disk_ = std::make_unique<storage::TracingDisk>(disk, trace);
    disk = stack->tracing_disk_.get();
  }
  SHPIR_ASSIGN_OR_RETURN(stack->cpu_,
                         hardware::SecureCoprocessor::Create(
                             profile, disk, options.page_size, seed));
  SHPIR_ASSIGN_OR_RETURN(stack->engine_,
                         CApproxPir::Create(stack->cpu_.get(), options, trace));
  return stack;
}

}  // namespace shpir::core
