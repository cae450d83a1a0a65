#include "net/remote_disk.h"

#include <cstring>

namespace shpir::net {

Result<std::unique_ptr<RemoteDisk>> RemoteDisk::Connect(
    Transport* transport) {
  if (transport == nullptr) {
    return InvalidArgumentError("transport is required");
  }
  Request request;
  request.op = Op::kGeometry;
  SHPIR_ASSIGN_OR_RETURN(Bytes response,
                         transport->RoundTrip(EncodeRequest(request)));
  SHPIR_ASSIGN_OR_RETURN(Bytes payload, DecodeResponse(response));
  if (payload.size() != 16) {
    return DataLossError("malformed geometry response");
  }
  const uint64_t num_slots = LoadLE64(payload.data());
  const uint64_t slot_size = LoadLE64(payload.data() + 8);
  return std::unique_ptr<RemoteDisk>(
      new RemoteDisk(transport, num_slots, slot_size));
}

Result<Bytes> RemoteDisk::Call(Request request) {
  // Wrap the round trip in a span and propagate its context so the
  // provider's spans nest under this RTT in the assembled trace.
  obs::TraceSpan rtt_span(tracer_, trace_ctx_, "remote_disk_rtt");
  if (rtt_span.context().active()) {
    request.trace = rtt_span.context();
  }
  const Bytes frame = EncodeRequest(request);
  // shpir-lint-allow-next-line(secret-arg): the request frame (op + slot location) is the scheme's priced observable: the provider is untrusted by design and privacy comes from the shuffle and cache policy (Eq. 5), while payloads cross only as sealed pages
  SHPIR_ASSIGN_OR_RETURN(Bytes response, transport_->RoundTrip(frame));
  if (accountant_ != nullptr) {
    accountant_->AddNetworkRoundTrips(1);
    accountant_->AddNetworkBytes(frame.size() + response.size());
  }
  return DecodeResponse(response);
}

Status RemoteDisk::Read(storage::Location loc, MutableByteSpan out) {
  if (out.size() != slot_size_) {
    return InvalidArgumentError("read buffer has wrong size");
  }
  Request request;
  request.op = Op::kRead;
  request.location = loc;
  SHPIR_ASSIGN_OR_RETURN(Bytes payload, Call(request));
  if (payload.size() != slot_size_) {
    return DataLossError("short remote read");
  }
  std::memcpy(out.data(), payload.data(), slot_size_);
  return OkStatus();
}

Status RemoteDisk::Write(storage::Location loc, ByteSpan data) {
  if (data.size() != slot_size_) {
    return InvalidArgumentError("write data has wrong size");
  }
  Request request;
  request.op = Op::kWrite;
  request.location = loc;
  request.payload.assign(data.begin(), data.end());
  Result<Bytes> response = Call(request);
  return response.ok() ? OkStatus() : response.status();
}

Status RemoteDisk::SplitSlots(const Bytes& payload, uint64_t count,
                              std::vector<Bytes>& out) const {
  // shpir-lint-allow-next-line(secret-compare): length check against the public run length and slot size
  if (payload.size() != count * slot_size_) {
    return DataLossError("short remote read");
  }
  // shpir-lint-allow-next-line(secret-alloc): run length is a public scheme parameter (c pages per round)
  out.resize(count);
  // shpir-lint-allow-next-line(secret-loop-bound): iteration count equals the public run length
  for (uint64_t i = 0; i < count; ++i) {
    out[i].assign(
        payload.begin() + static_cast<ptrdiff_t>(i * slot_size_),
        payload.begin() + static_cast<ptrdiff_t>((i + 1) * slot_size_));
  }
  return OkStatus();
}

Status RemoteDisk::AppendSlot(ByteSpan slot, Bytes& payload) const {
  if (slot.size() != slot_size_) {
    return InvalidArgumentError("write slot has wrong size");
  }
  payload.insert(payload.end(), slot.begin(), slot.end());
  return OkStatus();
}

Status RemoteDisk::ReadRun(storage::Location start, uint64_t count,
                           std::vector<Bytes>& out) {
  Request request;
  request.op = Op::kReadRun;
  request.location = start;
  request.count = count;
  SHPIR_ASSIGN_OR_RETURN(Bytes payload, Call(request));
  return SplitSlots(payload, count, out);
}

Status RemoteDisk::WriteRun(storage::Location start,
                            const std::vector<Bytes>& slots) {
  Request request;
  request.op = Op::kWriteRun;
  request.location = start;
  request.count = slots.size();
  request.payload.reserve(slots.size() * slot_size_);
  for (const Bytes& slot : slots) {
    SHPIR_RETURN_IF_ERROR(AppendSlot(slot, request.payload));
  }
  Result<Bytes> response = Call(request);
  return response.ok() ? OkStatus() : response.status();
}

Status RemoteDisk::ReadPlan(const storage::IoPlan& plan,
                            std::vector<Bytes>& out) {
  SHPIR_ASSIGN_OR_RETURN(Bytes payload,
                         Call(PlanRequest(Op::kReadPlan, plan)));
  return SplitSlots(payload, plan.k + 1, out);
}

Status RemoteDisk::WritePlan(const storage::IoPlan& plan,
                             const std::vector<Bytes>& run,
                             ByteSpan extra_slot) {
  if (run.size() != plan.k) {
    return InvalidArgumentError("write plan run has the wrong length");
  }
  Request request = PlanRequest(Op::kWritePlan, plan);
  request.payload.reserve(kPlanHeaderSize + (plan.k + 1) * slot_size_);
  for (const Bytes& slot : run) {
    SHPIR_RETURN_IF_ERROR(AppendSlot(slot, request.payload));
  }
  SHPIR_RETURN_IF_ERROR(AppendSlot(extra_slot, request.payload));
  Result<Bytes> response = Call(std::move(request));
  return response.ok() ? OkStatus() : response.status();
}

Result<KeywordManifest> FetchKeywordManifest(Transport& transport,
                                             uint64_t cached_version) {
  Request request;
  request.op = Op::kKeywordManifest;
  request.payload = EncodeKeywordManifestRequest(cached_version);
  SHPIR_ASSIGN_OR_RETURN(Bytes frame,
                         transport.RoundTrip(EncodeRequest(request)));
  SHPIR_ASSIGN_OR_RETURN(Bytes payload, DecodeResponse(frame));
  return DecodeKeywordManifestResponse(payload);
}

Result<std::string> FetchAdmin(Transport& transport, std::string_view name,
                               std::string_view arg) {
  Request request;
  request.op = Op::kAdmin;
  request.payload = EncodeAdminRequest(name, arg);
  SHPIR_ASSIGN_OR_RETURN(Bytes frame,
                         transport.RoundTrip(EncodeRequest(request)));
  SHPIR_ASSIGN_OR_RETURN(Bytes document, DecodeResponse(frame));
  return std::string(document.begin(), document.end());
}

}  // namespace shpir::net
