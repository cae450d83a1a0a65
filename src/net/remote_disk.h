#ifndef SHPIR_NET_REMOTE_DISK_H_
#define SHPIR_NET_REMOTE_DISK_H_

#include <memory>
#include <string>
#include <string_view>

#include "hardware/cost_accountant.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "storage/disk.h"

namespace shpir::net {

/// Owner-side view of the provider's disk. Implements the storage::Disk
/// interface over a Transport, so the whole PIR stack (coprocessor +
/// engine) runs unchanged at the owner in the two-party model — every
/// disk call becomes one network round trip carrying sealed pages. A
/// round's ReadPlan and WritePlan are one call each, so a query costs
/// two round trips: the batched reads, then the write acknowledgement.
///
/// Network usage (one RTT and request+response bytes per call) is
/// recorded into an optional CostAccountant so simulated response times
/// under a HardwareProfile include the network term.
class RemoteDisk : public storage::Disk {
 public:
  /// Fetches the geometry from the remote end. `transport` is unowned.
  static Result<std::unique_ptr<RemoteDisk>> Connect(Transport* transport);

  /// Registers the accountant that receives network counters (e.g. the
  /// owner-side coprocessor's). Pass nullptr to disable.
  void set_accountant(hardware::CostAccountant* accountant) {
    accountant_ = accountant;
  }

  /// Attaches a span collector (unowned; nullptr detaches): each round
  /// trip under an active context then emits a "remote_disk_rtt" span
  /// and forwards the context to the provider via the kTraced envelope.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Parents subsequent round trips under `ctx`. Like SpanDisk, the
  /// context hand-off relies on the caller serializing queries.
  void set_trace_context(const obs::TraceContext& ctx) { trace_ctx_ = ctx; }
  void clear_trace_context() { trace_ctx_ = obs::TraceContext{}; }

  uint64_t num_slots() const override { return num_slots_; }
  size_t slot_size() const override { return slot_size_; }
  Status Read(storage::Location loc, MutableByteSpan out) override;
  Status Write(storage::Location loc, ByteSpan data) override;
  Status ReadRun(storage::Location start, uint64_t count,
                 std::vector<Bytes>& out) override;
  Status WriteRun(storage::Location start,
                  const std::vector<Bytes>& slots) override;
  Status ReadPlan(const storage::IoPlan& plan,
                  std::vector<Bytes>& out) override;
  Status WritePlan(const storage::IoPlan& plan, const std::vector<Bytes>& run,
                   ByteSpan extra_slot) override;

 private:
  RemoteDisk(Transport* transport, uint64_t num_slots, size_t slot_size)
      : transport_(transport), num_slots_(num_slots), slot_size_(slot_size) {}

  /// Sends one frame, accounting the RTT and bytes both ways.
  Result<Bytes> Call(Request request);

  /// Splits a response payload of exactly `count` slots into `out`.
  Status SplitSlots(const Bytes& payload, uint64_t count,
                    std::vector<Bytes>& out) const;

  /// Appends `slot` to `payload` after checking its size.
  Status AppendSlot(ByteSpan slot, Bytes& payload) const;

  Transport* transport_;
  uint64_t num_slots_;
  size_t slot_size_;
  hardware::CostAccountant* accountant_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::TraceContext trace_ctx_;
};

/// Owner-side helper: fetches the provider's published keyword-store
/// manifest over the storage protocol (Op::kKeywordManifest). Pass the
/// build version already held to get a body-less "not modified" answer
/// when it is current; 0 always fetches.
Result<KeywordManifest> FetchKeywordManifest(Transport& transport,
                                             uint64_t cached_version = 0);

/// Fetches admin document `name` with the optional argument text from
/// the provider over the storage protocol (Op::kAdmin).
Result<std::string> FetchAdmin(Transport& transport, std::string_view name,
                               std::string_view arg = {});

}  // namespace shpir::net

#endif  // SHPIR_NET_REMOTE_DISK_H_
