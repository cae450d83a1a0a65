#ifndef SHPIR_STORAGE_ACCESS_TRACE_H_
#define SHPIR_STORAGE_ACCESS_TRACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/disk.h"

namespace shpir::storage {

/// One adversary-observable disk access. The server (adversary) sees the
/// operation type and slot index of every access the secure hardware
/// makes — nothing else (contents are ciphertext).
struct AccessEvent {
  enum class Op : uint8_t { kRead, kWrite };

  /// request_index value for accesses made before any BeginRequest()
  /// (bulk load, reshuffles, other setup I/O). Setup accesses are part
  /// of no client request; analysis code must not attribute them to one.
  static constexpr uint64_t kSetupIndex = UINT64_MAX;

  Op op;
  Location location;
  /// Index of the client request during which this access happened,
  /// stamped by the PIR engine via AccessTrace::BeginRequest(), or
  /// kSetupIndex for accesses preceding the first request.
  uint64_t request_index;

  friend bool operator==(const AccessEvent& a, const AccessEvent& b) {
    return a.op == b.op && a.location == b.location &&
           a.request_index == b.request_index;
  }
};

/// Records the adversary's view of the disk. PIR engines call
/// BeginRequest() once per client query so analysis code can correlate
/// accesses with request instants (the paper's t = 0, 1, 2, ...).
class AccessTrace {
 public:
  /// Marks the start of a new client request; subsequent events are
  /// stamped with its index. Returns that index.
  uint64_t BeginRequest() { return current_request_++; }

  void RecordRead(Location loc) {
    events_.push_back({AccessEvent::Op::kRead, loc, CurrentIndex()});
  }
  void RecordWrite(Location loc) {
    events_.push_back({AccessEvent::Op::kWrite, loc, CurrentIndex()});
  }

  const std::vector<AccessEvent>& events() const { return events_; }
  uint64_t num_requests() const { return current_request_; }

  void Clear() {
    events_.clear();
    current_request_ = 0;
  }

 private:
  /// Index to stamp on an access happening now. Before the first
  /// BeginRequest() the subtraction below would underflow to an
  /// arbitrary-looking huge index; such setup accesses get the explicit
  /// kSetupIndex sentinel instead.
  uint64_t CurrentIndex() const {
    return current_request_ == 0 ? AccessEvent::kSetupIndex
                                 : current_request_ - 1;
  }

  std::vector<AccessEvent> events_;
  uint64_t current_request_ = 0;
};

/// Disk decorator that reports every access to an AccessTrace. Wrap the
/// server disk with this to obtain the adversary's transcript.
class TracingDisk : public Disk {
 public:
  /// Neither pointer is owned; both must outlive the TracingDisk.
  TracingDisk(Disk* inner, AccessTrace* trace)
      : inner_(inner), trace_(trace) {}

  uint64_t num_slots() const override { return inner_->num_slots(); }
  size_t slot_size() const override { return inner_->slot_size(); }

  Status Read(Location loc, MutableByteSpan out) override {
    trace_->RecordRead(loc);
    return inner_->Read(loc, out);
  }

  Status Write(Location loc, ByteSpan data) override {
    trace_->RecordWrite(loc);
    return inner_->Write(loc, data);
  }

  // Runs reach the inner disk as runs, so a decorator below (a shard's
  // SpanDisk) sees the same calls with or without a trace above it.
  Status ReadRun(Location start, uint64_t count,
                 std::vector<Bytes>& out) override {
    if (!RunFits(start, count, num_slots())) {
      return OutOfRangeError("run extends past end of disk");
    }
    for (uint64_t i = 0; i < count; ++i) {
      trace_->RecordRead(start + i);
    }
    return inner_->ReadRun(start, count, out);
  }

  Status WriteRun(Location start, const std::vector<Bytes>& slots) override {
    if (!RunFits(start, slots.size(), num_slots())) {
      return OutOfRangeError("run extends past end of disk");
    }
    for (uint64_t i = 0; i < slots.size(); ++i) {
      trace_->RecordWrite(start + i);
    }
    return inner_->WriteRun(start, slots);
  }

 private:
  Disk* inner_;
  AccessTrace* trace_;
};

}  // namespace shpir::storage

#endif  // SHPIR_STORAGE_ACCESS_TRACE_H_
