#include "net/pir_service.h"

namespace shpir::net {

namespace {

constexpr uint8_t kOpRetrieve = 1;
constexpr uint8_t kOpModify = 2;
constexpr uint8_t kOpInsert = 3;
constexpr uint8_t kOpRemove = 4;
constexpr uint8_t kOpTraced = 7;  // Envelope: ctx(17) | inner request.
// Keyword-store manifest fetch; payload is the shared wire codec
// (EncodeKeywordManifestRequest / ...Response in net/wire.h).
constexpr uint8_t kOpKeywordManifest = 10;
// One admin document; payload is the shared EncodeAdminRequest codec
// (net/wire.h), the response is the document body. Codes 5, 6, 8, 9
// and 11-14 are retired per-document admin ops: they are rejected as
// unknown and must never be reused.
constexpr uint8_t kOpAdmin = 15;

constexpr uint8_t kStatusOk = 0;
constexpr uint8_t kStatusError = 1;

constexpr size_t kRequestHeader = 1 + 8;

Bytes OkResponse(ByteSpan payload = {}) {
  Bytes out(1 + payload.size());
  out[0] = kStatusOk;
  std::copy(payload.begin(), payload.end(), out.begin() + 1);
  return out;
}

Bytes ErrorResponse(const Status& status) {
  const std::string text = status.ToString();
  Bytes out(1 + text.size());
  out[0] = kStatusError;
  std::copy(text.begin(), text.end(), out.begin() + 1);
  return out;
}

}  // namespace

Result<Bytes> PirServiceServer::HandleRecord(ByteSpan record,
                                             const QueueTiming* timing) {
  SHPIR_ASSIGN_OR_RETURN(Bytes request, session_.Open(record));
  // Unwrap a TRACED envelope into the propagated context. A malformed
  // envelope fails the whole record (it is inside the authenticated
  // session, so garbage here means a broken peer, not line noise).
  obs::TraceContext trace_ctx;
  ByteSpan plaintext(request);
  if (!plaintext.empty() && plaintext[0] == kOpTraced) {
    if (plaintext.size() < 1 + obs::TraceContext::kWireSize) {
      return InvalidArgumentError("truncated traced envelope");
    }
    SHPIR_ASSIGN_OR_RETURN(trace_ctx,
                           obs::TraceContext::Decode(plaintext.subspan(1)));
    plaintext = plaintext.subspan(1 + obs::TraceContext::kWireSize);
    if (!plaintext.empty() && plaintext[0] == kOpTraced) {
      return InvalidArgumentError("nested traced envelope");
    }
  }
  // Retroactive queue-wait span: the relay recorded when the frame
  // arrived and when it was dequeued; with a sampled context that gap
  // becomes a "hub_queue_wait" span under the client's root.
  if (tracer_ != nullptr && trace_ctx.active() && timing != nullptr &&
      timing->dequeue_ns > timing->arrival_ns) {
    obs::SpanRecord wait;
    wait.trace_id = trace_ctx.trace_id;
    wait.span_id = tracer_->NewSpanId();
    wait.parent_span_id = trace_ctx.span_id;
    wait.name = "hub_queue_wait";
    wait.start_ns = timing->arrival_ns;
    wait.duration_ns = timing->dequeue_ns - timing->arrival_ns;
    tracer_->Record(wait);
  }
  // Service-side span covering decode + engine work; the engine parents
  // its own spans under this one.
  obs::TraceSpan service_span(tracer_, trace_ctx, "service_handle");
  Bytes response;
  if (plaintext.size() < kRequestHeader) {
    response = ErrorResponse(InvalidArgumentError("truncated request"));
  } else {
    const uint8_t op = plaintext[0];
    const storage::PageId id = LoadLE64(plaintext.data() + 1);
    const ByteSpan payload(plaintext.data() + kRequestHeader,
                           plaintext.size() - kRequestHeader);
    switch (op) {
      case kOpRetrieve: {
        Result<Bytes> data =
            service_span.context().active()
                ? engine_->TracedRetrieve(id, service_span.context())
                : engine_->Retrieve(id);
        response = data.ok() ? OkResponse(*data)
                             : ErrorResponse(data.status());
        break;
      }
      case kOpModify: {
        const Status status =
            engine_->Modify(id, Bytes(payload.begin(), payload.end()));
        response = status.ok() ? OkResponse() : ErrorResponse(status);
        break;
      }
      case kOpInsert: {
        Result<storage::PageId> new_id =
            engine_->Insert(Bytes(payload.begin(), payload.end()));
        if (new_id.ok()) {
          uint8_t buf[8];
          StoreLE64(*new_id, buf);
          response = OkResponse(ByteSpan(buf, 8));
        } else {
          response = ErrorResponse(new_id.status());
        }
        break;
      }
      case kOpRemove: {
        const Status status = engine_->Remove(id);
        response = status.ok() ? OkResponse() : ErrorResponse(status);
        break;
      }
      case kOpKeywordManifest: {
        if (!keyword_manifest_) {
          response = ErrorResponse(UnimplementedError(
              "no keyword manifest published on this service"));
          break;
        }
        Result<uint64_t> cached = DecodeKeywordManifestRequest(payload);
        if (!cached.ok()) {
          response = ErrorResponse(cached.status());
          break;
        }
        const KeywordManifest current = keyword_manifest_();
        response = OkResponse(EncodeKeywordManifestResponse(
            current, /*include_body=*/*cached != current.version));
        break;
      }
      case kOpAdmin: {
        Result<std::string> document = ServeAdmin(admin_, payload);
        response = document.ok() ? OkResponse(AsBytes(*document))
                                 : ErrorResponse(document.status());
        break;
      }
      default:
        response = ErrorResponse(InvalidArgumentError("unknown op"));
    }
  }
  return session_.Seal(response);
}

Result<Bytes> PirServiceClient::Call(uint8_t op, storage::PageId id,
                                     ByteSpan payload) {
  // Root span for the whole logical query: the head sampling decision
  // made here is inherited by every downstream span. Unsampled queries
  // send no envelope and pay zero wire overhead.
  obs::TraceSpan root(tracer_, "client_query");
  Bytes request;
  if (root.context().active()) {
    request.push_back(kOpTraced);
    root.context().EncodeTo(request);
  }
  const size_t inner = request.size();
  request.resize(inner + kRequestHeader + payload.size());
  request[inner] = op;
  StoreLE64(id, request.data() + inner + 1);
  std::copy(payload.begin(), payload.end(),
            request.begin() + static_cast<ptrdiff_t>(inner) + kRequestHeader);
  Result<Bytes> sealed_or = [&]() -> Result<Bytes> {
    obs::TraceSpan encode(tracer_, root.context(), "client_encode");
    return session_.Seal(request);
  }();
  SHPIR_ASSIGN_OR_RETURN(Bytes sealed, std::move(sealed_or));
  SHPIR_ASSIGN_OR_RETURN(Bytes response_record, deliver_(sealed));
  SHPIR_ASSIGN_OR_RETURN(Bytes response, session_.Open(response_record));
  if (response.empty()) {
    return DataLossError("empty service response");
  }
  // shpir-lint-allow-next-line(secret-compare): the status byte is a public protocol header on the opened record
  if (response[0] == kStatusError) {
    return InternalError("service error: " +
                         std::string(response.begin() + 1, response.end()));
  }
  // shpir-lint-allow-next-line(secret-compare): the status byte is a public protocol header on the opened record
  if (response[0] != kStatusOk) {
    return DataLossError("malformed service response");
  }
  return Bytes(response.begin() + 1, response.end());
}

Result<Bytes> PirServiceClient::Retrieve(storage::PageId id) {
  return Call(kOpRetrieve, id, {});
}

Status PirServiceClient::Modify(storage::PageId id, ByteSpan data) {
  Result<Bytes> response = Call(kOpModify, id, data);
  return response.ok() ? OkStatus() : response.status();
}

Result<storage::PageId> PirServiceClient::Insert(ByteSpan data) {
  SHPIR_ASSIGN_OR_RETURN(Bytes response, Call(kOpInsert, 0, data));
  if (response.size() != 8) {
    return DataLossError("malformed insert response");
  }
  return LoadLE64(response.data());
}

Status PirServiceClient::Remove(storage::PageId id) {
  Result<Bytes> response = Call(kOpRemove, id, {});
  return response.ok() ? OkStatus() : response.status();
}

Result<KeywordManifest> PirServiceClient::FetchKeywordManifest(
    uint64_t cached_version) {
  const Bytes request = EncodeKeywordManifestRequest(cached_version);
  SHPIR_ASSIGN_OR_RETURN(Bytes response,
                         Call(kOpKeywordManifest, 0, request));
  return DecodeKeywordManifestResponse(response);
}

Result<std::string> PirServiceClient::Admin(std::string_view name,
                                            std::string_view arg) {
  SHPIR_ASSIGN_OR_RETURN(Bytes document,
                         Call(kOpAdmin, 0, EncodeAdminRequest(name, arg)));
  return std::string(document.begin(), document.end());
}

}  // namespace shpir::net
