#include "net/storage_server.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "obs/build_info.h"
#include "obs/export.h"

namespace shpir::net {

namespace {

/// Static span name for a provider-side request (span names must have
/// static storage). The op is public wire metadata.
const char* ProviderSpanName(Op op) {
  switch (op) {
    case Op::kRead:
      return "provider_read";
    case Op::kWrite:
      return "provider_write";
    case Op::kReadRun:
      return "provider_read_run";
    case Op::kWriteRun:
      return "provider_write_run";
    case Op::kReadPlan:
      return "provider_read_plan";
    case Op::kWritePlan:
      return "provider_write_plan";
    default:
      return "provider_request";
  }
}

}  // namespace

StorageServer::StorageServer(storage::Disk* disk,
                             obs::MetricsRegistry* metrics,
                             obs::Tracer* tracer, obs::Profiler* profiler,
                             obs::SloTracker* slo, obs::EventLog* eventlog,
                             obs::FlightRecorder* recorder,
                             const obs::AdminRegistry* admin)
    : disk_(disk),
      tracer_(tracer),
      profiler_(profiler),
      slo_(slo),
      eventlog_(eventlog),
      recorder_(recorder),
      admin_(admin) {
  if (eventlog_ != nullptr) {
    eventlog_->Emit(obs::EventLevel::kInfo, "provider_started",
                    {{"num_slots", disk_->num_slots()},
                     {"slot_size", disk_->slot_size()}});
  }
  if (metrics != nullptr) {
    instruments_.requests =
        metrics->FindOrCreateCounter("shpir_provider_requests_total");
    instruments_.read_slots =
        metrics->FindOrCreateCounter("shpir_provider_read_slots_total");
    instruments_.write_slots =
        metrics->FindOrCreateCounter("shpir_provider_write_slots_total");
    instruments_.errors =
        metrics->FindOrCreateCounter("shpir_provider_errors_total");
  }
}

Bytes StorageServer::Handle(ByteSpan request_frame) {
  if (metered()) {
    instruments_.requests->Increment();
  }
  Result<Request> decoded = DecodeRequest(request_frame);
  if (!decoded.ok()) {
    if (metered()) {
      instruments_.errors->Increment();
    }
    if (slo_ != nullptr) {
      slo_->Record(0, /*ok=*/false);
    }
    if (eventlog_ != nullptr) {
      // Frame-level metadata only: the size of a hostile frame is
      // something the provider observes anyway.
      eventlog_->Emit(obs::EventLevel::kWarn, "provider_bad_frame",
                      {{"frame_bytes", request_frame.size()}});
    }
    if (recorder_ != nullptr) {
      recorder_->Poll();
    }
    return EncodeErrorResponse(decoded.status());
  }
  const Request& request = *decoded;
  const auto start = std::chrono::steady_clock::now();
  // Provider-side span, parented on the propagated context (inert when
  // no tracer is attached or the request was not sampled).
  obs::TraceSpan span(tracer_, request.trace, ProviderSpanName(request.op));
  Bytes response;
  {
    // Head-sampled requests profile as provider_handle;<op-name> —
    // both frames name wire metadata the provider observes anyway.
    obs::ProfileScope handle_scope(
        profiler_ != nullptr && profiler_->SampleQuery() ? profiler_
                                                         : nullptr,
        "provider_handle");
    obs::ProfileScope op_scope(
        handle_scope.active() ? profiler_ : nullptr,
        ProviderSpanName(request.op));
    response = Dispatch(request);
  }
  // Admin fetches are operator traffic, not the data path the SLO
  // covers: a malformed one must not spend the data path's budget.
  if (slo_ != nullptr && request.op != Op::kAdmin) {
    // Response byte 0 is the wire status (0 = OK).
    const bool ok = !response.empty() && response[0] == 0;
    slo_->Record(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()),
        ok);
  }
  return response;
}

void StorageServer::PublishKeywordManifest(Bytes manifest,
                                           uint64_t version) {
  common::MutexLock lock(manifest_mutex_);
  keyword_manifest_.manifest = std::move(manifest);
  keyword_manifest_.version = version;
  keyword_manifest_published_ = true;
}

Bytes StorageServer::Fail(const Status& status) {
  if (metered()) {
    instruments_.errors->Increment();
  }
  return EncodeErrorResponse(status);
}

Bytes StorageServer::Dispatch(const Request& request) {
  switch (request.op) {
    case Op::kKeywordManifest: {
      common::MutexLock lock(manifest_mutex_);
      if (!keyword_manifest_published_) {
        return EncodeErrorResponse(UnimplementedError(
            "no keyword manifest published on this provider"));
      }
      Result<uint64_t> cached =
          DecodeKeywordManifestRequest(request.payload);
      if (!cached.ok()) {
        return Fail(cached.status());
      }
      const bool include_body = *cached != keyword_manifest_.version;
      return EncodeOkResponse(
          EncodeKeywordManifestResponse(keyword_manifest_, include_body));
    }
    case Op::kAdmin: {
      Result<std::string> document = ServeAdmin(admin_, request.payload);
      if (!document.ok()) {
        return Fail(document.status());
      }
      return EncodeOkResponse(AsBytes(*document));
    }
    case Op::kGeometry: {
      Bytes payload(16);
      StoreLE64(disk_->num_slots(), payload.data());
      StoreLE64(disk_->slot_size(), payload.data() + 8);
      return EncodeOkResponse(payload);
    }
    case Op::kTraced:
      break;  // DecodeRequest unwraps envelopes; never surfaces here.
    default: {
      common::MutexLock lock(data_mutex_);
      return DispatchData(request);
    }
  }
  return EncodeErrorResponse(InternalError("unhandled op"));
}

Bytes StorageServer::DispatchData(const Request& request) {
  const uint64_t num_slots = disk_->num_slots();
  const size_t slot_size = disk_->slot_size();
  switch (request.op) {
    case Op::kRead: {
      Bytes slot(slot_size);
      const Status status = disk_->Read(request.location, slot);
      if (!status.ok()) {
        return Fail(status);
      }
      if (metered()) {
        instruments_.read_slots->Increment();
      }
      return EncodeOkResponse(slot);
    }
    case Op::kWrite: {
      if (request.payload.size() != slot_size) {
        return Fail(InvalidArgumentError("write payload size mismatch"));
      }
      const Status status = disk_->Write(request.location, request.payload);
      if (!status.ok()) {
        return Fail(status);
      }
      if (metered()) {
        instruments_.write_slots->Increment();
      }
      return EncodeOkResponse({});
    }
    case Op::kReadRun: {
      // Bounded before anything is allocated: count is off the wire.
      if (!storage::RunFits(request.location, request.count, num_slots)) {
        return Fail(OutOfRangeError("read run extends past end of disk"));
      }
      std::vector<Bytes> slots;
      const Status status =
          disk_->ReadRun(request.location, request.count, slots);
      if (!status.ok()) {
        return Fail(status);
      }
      if (metered()) {
        instruments_.read_slots->Increment(request.count);
      }
      Bytes payload;
      payload.reserve(request.count * slot_size);
      for (const Bytes& slot : slots) {
        payload.insert(payload.end(), slot.begin(), slot.end());
      }
      return EncodeOkResponse(payload);
    }
    case Op::kWriteRun: {
      if (!storage::RunFits(request.location, request.count, num_slots)) {
        return Fail(OutOfRangeError("write run extends past end of disk"));
      }
      // count <= num_slots, so the product is at most the disk's size.
      if (request.payload.size() != request.count * slot_size) {
        return Fail(InvalidArgumentError("write-run payload size mismatch"));
      }
      std::vector<Bytes> slots(request.count);
      for (uint64_t i = 0; i < request.count; ++i) {
        slots[i].assign(
            request.payload.begin() + static_cast<ptrdiff_t>(i * slot_size),
            request.payload.begin() +
                static_cast<ptrdiff_t>((i + 1) * slot_size));
      }
      const Status status = disk_->WriteRun(request.location, slots);
      if (!status.ok()) {
        return Fail(status);
      }
      if (metered()) {
        instruments_.write_slots->Increment(request.count);
      }
      return EncodeOkResponse({});
    }
    case Op::kReadPlan: {
      Result<storage::IoPlan> plan =
          DecodePlanRequest(request, num_slots, slot_size);
      if (!plan.ok()) {
        return Fail(plan.status());
      }
      std::vector<Bytes> slots;
      const Status status = disk_->ReadPlan(*plan, slots);
      if (!status.ok()) {
        return Fail(status);
      }
      if (metered()) {
        instruments_.read_slots->Increment(plan->k + 1);
      }
      Bytes frame = EncodeOkResponse({});
      frame.reserve(1 + (plan->k + 1) * slot_size);
      for (const Bytes& slot : slots) {
        frame.insert(frame.end(), slot.begin(), slot.end());
      }
      return frame;
    }
    case Op::kWritePlan: {
      Result<storage::IoPlan> plan =
          DecodePlanRequest(request, num_slots, slot_size);
      if (!plan.ok()) {
        return Fail(plan.status());
      }
      const uint8_t* body = request.payload.data() + kPlanHeaderSize;
      std::vector<Bytes> run(plan->k);
      for (uint64_t i = 0; i < plan->k; ++i) {
        run[i].assign(body + i * slot_size, body + (i + 1) * slot_size);
      }
      const Status status = disk_->WritePlan(
          *plan, run, ByteSpan(body + plan->k * slot_size, slot_size));
      if (!status.ok()) {
        return Fail(status);
      }
      if (metered()) {
        instruments_.write_slots->Increment(plan->k + 1);
      }
      return EncodeOkResponse({});
    }
    default:
      break;
  }
  return EncodeErrorResponse(InternalError("unhandled op"));
}

std::string StorageHealthJson(obs::SloTracker* slo,
                              const obs::EventLog* eventlog,
                              const obs::FlightRecorder* recorder) {
  bool degraded = false;
  std::string slo_json = "null";
  if (slo != nullptr) {
    const obs::SloTracker::Snapshot snapshot = slo->Evaluate();
    for (const auto* sli : {&snapshot.availability, &snapshot.latency}) {
      for (const auto& rule : sli->rules) {
        degraded = degraded || rule.firing;
      }
    }
    slo_json = obs::SloTracker::SnapshotJson(snapshot);
  }
  std::ostringstream out;
  out << "{\"ready\":true,\"degraded\":" << (degraded ? "true" : "false")
      << ",\"role\":\"storage\",\"build\":\""
      << obs::EscapeJsonString(obs::BuildInfoSummary())
      << "\",\"slo\":" << slo_json << ",\"eventlog_dropped\":"
      << (eventlog != nullptr ? std::to_string(eventlog->dropped())
                              : "null")
      << ",\"incidents_sealed\":"
      << (recorder != nullptr ? std::to_string(recorder->sealed())
                              : "null")
      << "}";
  return out.str();
}

}  // namespace shpir::net
