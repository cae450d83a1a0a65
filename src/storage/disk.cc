#include "storage/disk.h"

#include <cstring>

namespace shpir::storage {

Status Disk::ReadRun(Location start, uint64_t count, std::vector<Bytes>& out) {
  if (!RunFits(start, count, num_slots())) {
    return OutOfRangeError("run extends past end of disk");
  }
  // shpir-lint-allow-next-line(secret-alloc): run length is a public scheme parameter (c pages per round), not secret content
  out.resize(count);
  // shpir-lint-allow-next-line(secret-loop-bound): iteration count equals the public run length; the run's start location is the priced observable (Eq. 5)
  for (uint64_t i = 0; i < count; ++i) {
    out[i].resize(slot_size());
    SHPIR_RETURN_IF_ERROR(Read(start + i, out[i]));
  }
  return OkStatus();
}

Status Disk::WriteRun(Location start, const std::vector<Bytes>& slots) {
  if (!RunFits(start, slots.size(), num_slots())) {
    return OutOfRangeError("run extends past end of disk");
  }
  for (uint64_t i = 0; i < slots.size(); ++i) {
    SHPIR_RETURN_IF_ERROR(Write(start + i, slots[i]));
  }
  return OkStatus();
}

Status Disk::ReadPlan(const IoPlan& plan, std::vector<Bytes>& out) {
  // ReadRun trims `out` to the run; the extra slot's buffer steps aside
  // and comes back, so a caller that keeps `out` across rounds reads
  // into the same k+1 buffers every time.
  Bytes extra = out.size() > plan.k ? std::move(out[plan.k]) : Bytes();
  SHPIR_RETURN_IF_ERROR(ReadRun(plan.block_start, plan.k, out));
  extra.resize(slot_size());
  out.push_back(std::move(extra));
  return Read(plan.extra, out.back());
}

Status Disk::WritePlan(const IoPlan& plan, const std::vector<Bytes>& run,
                       ByteSpan extra_slot) {
  if (run.size() != plan.k) {
    return InvalidArgumentError("write plan run has the wrong length");
  }
  SHPIR_RETURN_IF_ERROR(WriteRun(plan.block_start, run));
  return Write(plan.extra, extra_slot);
}

MemoryDisk::MemoryDisk(uint64_t num_slots, size_t slot_size)
    : num_slots_(num_slots),
      slot_size_(slot_size),
      storage_(num_slots * slot_size, 0) {}

Status MemoryDisk::Read(Location loc, MutableByteSpan out) {
  if (loc >= num_slots_) {
    return OutOfRangeError("read past end of disk");
  }
  if (out.size() != slot_size_) {
    return InvalidArgumentError("read buffer has wrong size");
  }
  std::memcpy(out.data(), storage_.data() + loc * slot_size_, slot_size_);
  return OkStatus();
}

Status MemoryDisk::Write(Location loc, ByteSpan data) {
  if (loc >= num_slots_) {
    return OutOfRangeError("write past end of disk");
  }
  if (data.size() != slot_size_) {
    return InvalidArgumentError("write data has wrong size");
  }
  std::memcpy(storage_.data() + loc * slot_size_, data.data(), slot_size_);
  return OkStatus();
}

}  // namespace shpir::storage
