#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

// What the benchmark puts on the program's public seams. Nothing here
// changes a byte that passes through: the Timed* decorators count and
// time calls for the traced run, FootprintDisk records the provider's
// view of each operation so every run can check it, and FaultDisk
// breaks the data or the footprint on purpose for the self-tests.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/pir_engine.h"
#include "net/transport.h"
#include "storage/access_trace.h"
#include "storage/disk.h"

namespace perfbench {

using shpir::Bytes;
using shpir::ByteSpan;
using shpir::MutableByteSpan;
using shpir::Result;
using shpir::Status;
using shpir::storage::Location;
using shpir::storage::PageId;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Calls, bytes moved and busy time at one seam. Written by whichever
/// thread crosses the seam (client, listener or caller threads), read by
/// the benchmark's main thread while the rig is quiescent. The decorators only record
/// while the meter is on; otherwise they pass calls straight through.
struct Meter {
  std::atomic<bool> on{false};
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> ns{0};

  bool recording() const { return on.load(std::memory_order_relaxed); }
  void Add(uint64_t elapsed_ns, uint64_t moved_bytes) {
    calls.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(moved_bytes, std::memory_order_relaxed);
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }

  /// Runs `call` and, while recording, times it; `moved(result)` gives
  /// the bytes it moved.
  template <typename Call, typename Moved>
  auto Time(Call call, Moved moved) {
    if (!recording()) {
      return call();
    }
    const uint64_t start = NowNs();
    auto result = call();
    Add(NowNs() - start, moved(result));
    return result;
  }
};

/// Client-side Transport decorator: one call per round trip, request
/// plus response bytes.
class TimedTransport : public shpir::net::Transport {
 public:
  TimedTransport(shpir::net::Transport* inner, Meter* meter)
      : inner_(inner), meter_(meter) {}

  Result<Bytes> RoundTrip(ByteSpan request) override {
    return meter_->Time([&] { return inner_->RoundTrip(request); },
                        [&](const Result<Bytes>& reply) {
                          return request.size() +
                                 (reply.ok() ? reply->size() : 0);
                        });
  }

 private:
  shpir::net::Transport* inner_;
  Meter* meter_;
};

inline constexpr auto kNoBytes = [](const auto&) -> uint64_t { return 0; };

/// PirEngine decorator timing the calls the service (or the owner)
/// makes into the engine.
class TimedEngine : public shpir::core::PirEngine {
 public:
  TimedEngine(shpir::core::PirEngine* inner, Meter* meter)
      : inner_(inner), meter_(meter) {}

  Result<Bytes> Retrieve(PageId id) override {
    return meter_->Time([&] { return inner_->Retrieve(id); }, kNoBytes);
  }
  Status Modify(PageId id, Bytes data) override {
    return meter_->Time([&] { return inner_->Modify(id, std::move(data)); },
                        kNoBytes);
  }
  uint64_t num_pages() const override { return inner_->num_pages(); }
  size_t page_size() const override { return inner_->page_size(); }
  const char* name() const override { return inner_->name(); }

 private:
  shpir::core::PirEngine* inner_;
  Meter* meter_;
};

/// Disk decorator timing every call and the bytes it moves.
class TimedDisk : public shpir::storage::Disk {
 public:
  TimedDisk(shpir::storage::Disk* inner, Meter* meter)
      : inner_(inner), meter_(meter) {}

  uint64_t num_slots() const override { return inner_->num_slots(); }
  size_t slot_size() const override { return inner_->slot_size(); }
  Status Read(Location loc, MutableByteSpan out) override {
    return Timed(1, [&] { return inner_->Read(loc, out); });
  }
  Status Write(Location loc, ByteSpan data) override {
    return Timed(1, [&] { return inner_->Write(loc, data); });
  }
  Status ReadRun(Location start, uint64_t count,
                 std::vector<Bytes>& out) override {
    return Timed(count, [&] { return inner_->ReadRun(start, count, out); });
  }
  Status WriteRun(Location start, const std::vector<Bytes>& slots) override {
    return Timed(slots.size(),
                 [&] { return inner_->WriteRun(start, slots); });
  }

 private:
  template <typename Call>
  Status Timed(uint64_t slots, Call call) {
    return meter_->Time(call,
                        [&](const Status&) { return slots * slot_size(); });
  }

  shpir::storage::Disk* inner_;
  Meter* meter_;
};

/// One disk call as the storage provider sees it.
struct DiskCall {
  enum class Kind : uint8_t { kRead, kWrite, kReadRun, kWriteRun };
  Kind kind;
  Location start;
  uint64_t count;
};

/// Records every call the provider makes on its disk. The provider's
/// listener thread writes; the owner thread takes the calls after each
/// operation and checks them with CheckProviderRound.
class FootprintDisk : public shpir::storage::Disk {
 public:
  explicit FootprintDisk(shpir::storage::Disk* inner) : inner_(inner) {}

  uint64_t num_slots() const override { return inner_->num_slots(); }
  size_t slot_size() const override { return inner_->slot_size(); }
  Status Read(Location loc, MutableByteSpan out) override {
    Record({DiskCall::Kind::kRead, loc, 1});
    return inner_->Read(loc, out);
  }
  Status Write(Location loc, ByteSpan data) override {
    Record({DiskCall::Kind::kWrite, loc, 1});
    return inner_->Write(loc, data);
  }
  Status ReadRun(Location start, uint64_t count,
                 std::vector<Bytes>& out) override {
    Record({DiskCall::Kind::kReadRun, start, count});
    return inner_->ReadRun(start, count, out);
  }
  Status WriteRun(Location start, const std::vector<Bytes>& slots) override {
    Record({DiskCall::Kind::kWriteRun, start, slots.size()});
    return inner_->WriteRun(start, slots);
  }

  /// Returns and forgets the calls recorded since the last Take().
  std::vector<DiskCall> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(calls_, {});
  }

 private:
  void Record(const DiskCall& call) {
    std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back(call);
  }

  shpir::storage::Disk* inner_;
  std::mutex mutex_;
  std::vector<DiskCall> calls_;
};

/// The paper's per-operation footprint (Fig. 3, Eq. 8) in the provider's
/// view: a k-slot read-run at the public round-robin cursor, one
/// single-slot read outside that block, then the run and the slot each
/// written back once, and nothing else. Returns "" when `calls` match,
/// else what differs.
inline std::string CheckProviderRound(const std::vector<DiskCall>& calls,
                                      Location block_start, uint64_t k) {
  using Kind = DiskCall::Kind;
  if (calls.size() != 4) {
    return std::to_string(calls.size()) + " disk calls, expected 4";
  }
  const DiskCall& run = calls[0];
  const DiskCall& slot = calls[1];
  if (run.kind != Kind::kReadRun || run.start != block_start ||
      run.count != k) {
    return "first call is not the k-slot read-run at the cursor";
  }
  if (slot.kind != Kind::kRead ||
      (slot.start >= block_start && slot.start < block_start + k)) {
    return "second call is not one read outside the block";
  }
  if (calls[2].kind != Kind::kWriteRun || calls[2].start != block_start ||
      calls[2].count != k) {
    return "block is not written back once";
  }
  if (calls[3].kind != Kind::kWrite || calls[3].start != slot.start) {
    return "extra slot is not written back once";
  }
  return "";
}

/// Checks one shard's adversary-visible access trace round by round with
/// the same rule as CheckProviderRound, at the slot level: the k block
/// slots at the cursor and one slot outside them are each read once and
/// written once per round. Tracks the cursor across calls.
class ShardFootprint {
 public:
  ShardFootprint(uint64_t k, uint64_t scan_period)
      : k_(k), scan_period_(scan_period) {}

  /// Checks every round in `events` (setup accesses are skipped) and
  /// returns the number of rounds that broke the rule. `rounds` is
  /// incremented by the number of rounds seen.
  uint64_t Check(const std::vector<shpir::storage::AccessEvent>& events,
                 uint64_t* rounds) {
    using shpir::storage::AccessEvent;
    uint64_t violations = 0;
    size_t i = 0;
    while (i < events.size()) {
      const uint64_t index = events[i].request_index;
      size_t end = i;
      while (end < events.size() && events[end].request_index == index) {
        ++end;
      }
      if (index != AccessEvent::kSetupIndex) {
        if (!RoundOk(events, i, end)) {
          ++violations;
        }
        ++*rounds;
        ++round_;
      }
      i = end;
    }
    return violations;
  }

 private:
  bool RoundOk(const std::vector<shpir::storage::AccessEvent>& events,
               size_t begin, size_t end) const {
    using shpir::storage::AccessEvent;
    const Location block = (round_ % scan_period_) * k_;
    std::vector<Location> reads;
    std::vector<Location> writes;
    for (size_t i = begin; i < end; ++i) {
      (events[i].op == AccessEvent::Op::kRead ? reads : writes)
          .push_back(events[i].location);
    }
    if (reads.size() != k_ + 1) {
      return false;
    }
    std::sort(reads.begin(), reads.end());
    std::sort(writes.begin(), writes.end());
    if (reads != writes) {
      return false;
    }
    // k consecutive block slots plus one slot on either side of them.
    const auto first = std::lower_bound(reads.begin(), reads.end(), block);
    const size_t at = static_cast<size_t>(first - reads.begin());
    if (reads.size() - at < k_) {
      return false;
    }
    for (uint64_t j = 0; j < k_; ++j) {
      if (reads[at + j] != block + j) {
        return false;
      }
    }
    const Location extra = at == 0 ? reads[k_] : reads[0];
    return extra < block || extra >= block + k_;
  }

  uint64_t k_;
  uint64_t scan_period_;
  uint64_t round_ = 0;
};

/// Self-test faults. On the owner path FaultDisk injects them above
/// FootprintDisk so the checks see them; hub rigs inject kExtraRead on a
/// shard device's disk instead.
enum class Fault { kNone, kBitFlip, kExtraRead };

/// Flips one ciphertext bit in the first single-slot read, or reads one
/// extra slot alongside the first read-run; afterwards passes through.
class FaultDisk : public shpir::storage::Disk {
 public:
  FaultDisk(shpir::storage::Disk* inner, Fault fault)
      : inner_(inner), fault_(fault) {}

  uint64_t num_slots() const override { return inner_->num_slots(); }
  size_t slot_size() const override { return inner_->slot_size(); }
  Status Read(Location loc, MutableByteSpan out) override {
    Status status = inner_->Read(loc, out);
    if (status.ok() && fault_ == Fault::kBitFlip && !fired_) {
      fired_ = true;
      out[out.size() / 2] ^= 0x01;
    }
    return status;
  }
  Status Write(Location loc, ByteSpan data) override {
    return inner_->Write(loc, data);
  }
  Status ReadRun(Location start, uint64_t count,
                 std::vector<Bytes>& out) override {
    if (fault_ == Fault::kExtraRead && !fired_) {
      fired_ = true;
      Bytes scratch(slot_size());
      (void)inner_->Read((start + count) % num_slots(), scratch);
    }
    return inner_->ReadRun(start, count, out);
  }
  Status WriteRun(Location start, const std::vector<Bytes>& slots) override {
    return inner_->WriteRun(start, slots);
  }

 private:
  shpir::storage::Disk* inner_;
  Fault fault_;
  bool fired_ = false;  // Touched only by the provider's listener thread.
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
