#ifndef SHPIR_STORAGE_DISK_H_
#define SHPIR_STORAGE_DISK_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "storage/page.h"

namespace shpir::storage {

/// The public I/O of one Fig. 3 round: the k-slot run at the scan
/// cursor and the one extra slot outside it. Every field is known
/// before any page is read (the extra slot comes from the pageMap, the
/// cursor and the device RNG, never from the block's contents), so a
/// round reads its plan in one call and writes it back in one call.
struct IoPlan {
  Location block_start = 0;
  uint64_t k = 0;
  Location extra = 0;
};

/// True when the `count` slots from `start` lie on a disk of `num_slots`
/// slots. Written so that no sum wraps: `start` and `count` may come
/// straight off the wire.
inline bool RunFits(Location start, uint64_t count, uint64_t num_slots) {
  return count <= num_slots && start <= num_slots - count;
}

/// A block device holding `num_slots` fixed-size slots. This is the
/// untrusted server disk: everything written here is visible to the
/// adversary, so callers store only ciphertext.
class Disk {
 public:
  virtual ~Disk() = default;

  /// Number of slots.
  virtual uint64_t num_slots() const = 0;

  /// Size in bytes of each slot.
  virtual size_t slot_size() const = 0;

  /// Reads the slot at `loc` into `out` (must be slot_size() bytes).
  virtual Status Read(Location loc, MutableByteSpan out) = 0;

  /// Overwrites the slot at `loc` with `data` (must be slot_size() bytes).
  virtual Status Write(Location loc, ByteSpan data) = 0;

  /// Reads `count` consecutive slots starting at `start`. The default
  /// implementation loops over Read(); devices with faster sequential
  /// paths may override. Returns the slots concatenated.
  virtual Status ReadRun(Location start, uint64_t count,
                         std::vector<Bytes>& out);

  /// Writes `slots` consecutively starting at `start`.
  virtual Status WriteRun(Location start, const std::vector<Bytes>& slots);

  /// Reads the k+1 slots of `plan` into `out`: the run first, the extra
  /// slot last. The default is ReadRun then Read, in that order, into
  /// the buffers `out` already holds; a remote disk overrides it to send
  /// the whole plan in one round trip.
  virtual Status ReadPlan(const IoPlan& plan, std::vector<Bytes>& out);

  /// Writes `run` (plan.k slots) at plan.block_start, then `extra_slot`
  /// at plan.extra. The default is WriteRun then Write, in that order.
  virtual Status WritePlan(const IoPlan& plan, const std::vector<Bytes>& run,
                           ByteSpan extra_slot);
};

/// RAM-backed disk, the default substrate for tests and simulations.
class MemoryDisk : public Disk {
 public:
  /// Creates a zero-initialized disk of `num_slots` x `slot_size` bytes.
  MemoryDisk(uint64_t num_slots, size_t slot_size);

  uint64_t num_slots() const override { return num_slots_; }
  size_t slot_size() const override { return slot_size_; }
  Status Read(Location loc, MutableByteSpan out) override;
  Status Write(Location loc, ByteSpan data) override;

 private:
  uint64_t num_slots_;
  size_t slot_size_;
  Bytes storage_;
};

}  // namespace shpir::storage

#endif  // SHPIR_STORAGE_DISK_H_
