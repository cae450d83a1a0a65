#include "net/wire.h"

#include <algorithm>

namespace shpir::net {

namespace {
constexpr size_t kRequestHeader = 1 + 8 + 8;
constexpr uint8_t kStatusOk = 0;
constexpr uint8_t kStatusError = 1;
}  // namespace

namespace {

constexpr uint8_t kTraceFlagSampled = 0x01;

Bytes EncodeFrame(const Request& request) {
  Bytes frame(kRequestHeader + request.payload.size());
  frame[0] = static_cast<uint8_t>(request.op);
  StoreLE64(request.location, frame.data() + 1);
  StoreLE64(request.count, frame.data() + 9);
  std::copy(request.payload.begin(), request.payload.end(),
            frame.begin() + kRequestHeader);
  return frame;
}

}  // namespace

Bytes EncodeRequest(const Request& request) {
  Bytes inner = EncodeFrame(request);
  // shpir-lint-allow-next-line(secret-compare): op and trace-envelope fields are public protocol headers; the taint is field-insensitive over the partially-secret Request
  if (!request.trace.valid() || request.op == Op::kTraced) {
    return inner;
  }
  // Wrap in the kTraced envelope: the context rides the header fields
  // and one flags byte, the inner frame is carried verbatim.
  Bytes frame(kRequestHeader + 1 + inner.size());
  frame[0] = static_cast<uint8_t>(Op::kTraced);
  StoreLE64(request.trace.trace_id, frame.data() + 1);
  StoreLE64(request.trace.span_id, frame.data() + 9);
  frame[kRequestHeader] = request.trace.sampled ? kTraceFlagSampled : 0;
  std::copy(inner.begin(), inner.end(), frame.begin() + kRequestHeader + 1);
  return frame;
}

Result<Request> DecodeRequest(ByteSpan frame) {
  if (frame.size() < kRequestHeader) {
    return DataLossError("truncated request frame");
  }
  obs::TraceContext trace;
  if (frame[0] == static_cast<uint8_t>(Op::kTraced)) {
    trace.trace_id = LoadLE64(frame.data() + 1);
    trace.span_id = LoadLE64(frame.data() + 9);
    if (trace.trace_id == 0) {
      return InvalidArgumentError("traced envelope with zero trace id");
    }
    if (frame.size() < kRequestHeader + 1 + kRequestHeader) {
      return DataLossError("truncated traced envelope");
    }
    const uint8_t flags = frame[kRequestHeader];
    if ((flags & ~kTraceFlagSampled) != 0) {
      return InvalidArgumentError("unknown trace flags");
    }
    trace.sampled = (flags & kTraceFlagSampled) != 0;
    frame = frame.subspan(kRequestHeader + 1);
    if (frame[0] == static_cast<uint8_t>(Op::kTraced)) {
      return InvalidArgumentError("nested traced envelope");
    }
  }
  Request request;
  switch (frame[0]) {
    case static_cast<uint8_t>(Op::kRead):
    case static_cast<uint8_t>(Op::kWrite):
    case static_cast<uint8_t>(Op::kReadRun):
    case static_cast<uint8_t>(Op::kWriteRun):
    case static_cast<uint8_t>(Op::kGeometry):
    case static_cast<uint8_t>(Op::kKeywordManifest):
    case static_cast<uint8_t>(Op::kAdmin):
    case static_cast<uint8_t>(Op::kReadPlan):
    case static_cast<uint8_t>(Op::kWritePlan):
      request.op = static_cast<Op>(frame[0]);
      break;
    default:
      return InvalidArgumentError("unknown wire op");
  }
  request.location = LoadLE64(frame.data() + 1);
  request.count = LoadLE64(frame.data() + 9);
  request.payload.assign(frame.begin() + kRequestHeader, frame.end());
  request.trace = trace;
  return request;
}

Bytes EncodeOkResponse(ByteSpan payload) {
  Bytes frame(1 + payload.size());
  frame[0] = kStatusOk;
  std::copy(payload.begin(), payload.end(), frame.begin() + 1);
  return frame;
}

Bytes EncodeErrorResponse(const Status& status) {
  const std::string text = status.ToString();
  Bytes frame(1 + text.size());
  frame[0] = kStatusError;
  std::copy(text.begin(), text.end(), frame.begin() + 1);
  return frame;
}

Result<Bytes> DecodeResponse(ByteSpan frame) {
  if (frame.empty()) {
    return DataLossError("empty response frame");
  }
  // shpir-lint-allow-next-line(secret-compare): the status byte is a public protocol header; response payloads cross the wire sealed
  if (frame[0] == kStatusError) {
    return InternalError("remote error: " +
                         std::string(frame.begin() + 1, frame.end()));
  }
  // shpir-lint-allow-next-line(secret-compare): the status byte is a public protocol header; response payloads cross the wire sealed
  if (frame[0] != kStatusOk) {
    return DataLossError("malformed response frame");
  }
  return Bytes(frame.begin() + 1, frame.end());
}

Request PlanRequest(Op op, const storage::IoPlan& plan) {
  Request request;
  request.op = op;
  request.location = plan.block_start;
  request.count = plan.k;
  request.payload.resize(kPlanHeaderSize);
  request.payload[0] = kPlanVersion;
  StoreLE64(plan.extra, request.payload.data() + 1);
  return request;
}

Result<storage::IoPlan> DecodePlanRequest(const Request& request,
                                          uint64_t num_slots,
                                          size_t slot_size) {
  const ByteSpan payload = request.payload;
  if (payload.size() < kPlanHeaderSize) {
    return DataLossError("truncated plan request payload");
  }
  if (payload[0] != kPlanVersion) {
    return InvalidArgumentError("unknown plan request version");
  }
  storage::IoPlan plan;
  plan.block_start = request.location;
  plan.k = request.count;
  plan.extra = LoadLE64(payload.data() + 1);
  if (!storage::RunFits(plan.block_start, plan.k, num_slots)) {
    return OutOfRangeError("plan run extends past end of disk");
  }
  if (plan.extra >= num_slots) {
    return OutOfRangeError("plan extra slot past end of disk");
  }
  const size_t slot_bytes =
      request.op == Op::kWritePlan ? (plan.k + 1) * slot_size : 0;
  if (payload.size() != kPlanHeaderSize + slot_bytes) {
    return DataLossError("plan request payload has the wrong size");
  }
  return plan;
}

namespace {
constexpr size_t kKeywordManifestRequestSize = 1 + 8;
constexpr size_t kKeywordManifestResponseHeader = 8 + 1;
}  // namespace

Bytes EncodeKeywordManifestRequest(uint64_t cached_version) {
  Bytes payload(kKeywordManifestRequestSize);
  payload[0] = kKeywordManifestRequestVersion;
  StoreLE64(cached_version, payload.data() + 1);
  return payload;
}

Result<uint64_t> DecodeKeywordManifestRequest(ByteSpan payload) {
  if (payload.size() != kKeywordManifestRequestSize) {
    return DataLossError("malformed keyword-manifest request payload");
  }
  if (payload[0] != kKeywordManifestRequestVersion) {
    return InvalidArgumentError(
        "unknown keyword-manifest request version");
  }
  return LoadLE64(payload.data() + 1);
}

Bytes EncodeKeywordManifestResponse(const KeywordManifest& manifest,
                                    bool include_body) {
  Bytes payload(kKeywordManifestResponseHeader +
                (include_body ? manifest.manifest.size() : 0));
  StoreLE64(manifest.version, payload.data());
  payload[8] = include_body ? 1 : 0;
  if (include_body) {
    std::copy(manifest.manifest.begin(), manifest.manifest.end(),
              payload.begin() + kKeywordManifestResponseHeader);
  }
  return payload;
}

Result<KeywordManifest> DecodeKeywordManifestResponse(ByteSpan payload) {
  if (payload.size() < kKeywordManifestResponseHeader) {
    return DataLossError("truncated keyword-manifest response");
  }
  if (payload[8] > 1) {
    return InvalidArgumentError("malformed keyword-manifest response flag");
  }
  KeywordManifest manifest;
  manifest.version = LoadLE64(payload.data());
  if (payload[8] == 1) {
    manifest.manifest.assign(
        payload.begin() + kKeywordManifestResponseHeader, payload.end());
  } else if (payload.size() != kKeywordManifestResponseHeader) {
    return DataLossError(
        "keyword-manifest response carries bytes after an absent body");
  }
  return manifest;
}

namespace {

bool IsAdminNameChar(uint8_t c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
         c == '-';
}

}  // namespace

Bytes EncodeAdminRequest(std::string_view name, std::string_view arg) {
  Bytes payload;
  payload.reserve(2 + name.size() + arg.size());
  payload.push_back(kAdminRequestVersion);
  // A name too long for the size byte is sent with size 255, which the
  // server rejects, rather than wrapping to a shorter size that would
  // split the name into a valid-looking name and argument.
  payload.push_back(static_cast<uint8_t>(
      name.size() > 0xff ? 0xff : name.size()));
  payload.insert(payload.end(), name.begin(), name.end());
  payload.insert(payload.end(), arg.begin(), arg.end());
  return payload;
}

Result<AdminRequest> DecodeAdminRequest(ByteSpan payload) {
  if (payload.size() < 2) {
    return DataLossError("truncated admin request");
  }
  if (payload[0] != kAdminRequestVersion) {
    return InvalidArgumentError("unknown admin request version");
  }
  const size_t name_size = payload[1];
  if (name_size == 0 || name_size > kMaxAdminNameSize ||
      payload.size() < 2 + name_size) {
    return InvalidArgumentError("malformed admin document name");
  }
  const ByteSpan name = payload.subspan(2, name_size);
  const ByteSpan arg = payload.subspan(2 + name_size);
  if (!std::all_of(name.begin(), name.end(), IsAdminNameChar)) {
    return InvalidArgumentError("malformed admin document name");
  }
  if (arg.size() > kMaxAdminArgSize ||
      !std::all_of(arg.begin(), arg.end(),
                   [](uint8_t c) { return c >= 0x20 && c < 0x7f; })) {
    return InvalidArgumentError("malformed admin argument");
  }
  AdminRequest request;
  request.name.assign(name.begin(), name.end());
  request.arg.assign(arg.begin(), arg.end());
  return request;
}

Result<std::string> ServeAdmin(const obs::AdminRegistry* registry,
                               ByteSpan payload) {
  SHPIR_ASSIGN_OR_RETURN(AdminRequest request, DecodeAdminRequest(payload));
  if (registry == nullptr) {
    return NotFoundError("no admin documents on this endpoint");
  }
  return registry->Render(request.name, request.arg);
}

}  // namespace shpir::net
