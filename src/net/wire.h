#ifndef SHPIR_NET_WIRE_H_
#define SHPIR_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "obs/admin.h"
#include "obs/trace.h"
#include "storage/disk.h"
#include "storage/page.h"

namespace shpir::net {

/// Wire protocol between the owner-side RemoteDisk and the provider-side
/// StorageServer. All integers little-endian.
///
/// Request:  op(1) | location(8) | count(8) | payload
/// Response: status(1) | payload
///
/// Trace propagation: a request carrying a valid TraceContext is sent as
/// a kTraced wrapper — location := trace_id, count := span_id, payload
/// := flags(1) | inner frame — so existing ops stay byte-identical when
/// tracing is off. DecodeRequest unwraps the envelope back into
/// Request::trace; nested envelopes are rejected.
enum class Op : uint8_t {
  kRead = 1,      // Read one slot.
  kWrite = 2,     // Write one slot.
  kReadRun = 3,   // Read count consecutive slots.
  kWriteRun = 4,  // Write count consecutive slots.
  kGeometry = 5,  // Query (num_slots, slot_size).
  kTraced = 8,    // Envelope: a traced inner request (see above).
  // Fetch the public keyword-store manifest (versioned for rebuilds).
  // Payload: EncodeKeywordManifestRequest / ...Response below.
  kKeywordManifest = 11,
  // Fetch one admin document. Payload: EncodeAdminRequest below; the
  // response payload is the document body.
  kAdmin = 16,
  // One round's public I/O plan (storage::IoPlan): location is the
  // block start and count is k. READ_PLAN's payload is the plan header
  // below; its response is the k+1 slots, the extra slot last.
  // WRITE_PLAN's payload is the header followed by the k+1 slots.
  kReadPlan = 17,
  kWritePlan = 18,
};
// Codes 6, 7, 9, 10 and 12-15 are retired per-document admin ops: they
// are rejected as unknown and must never be reused.

struct Request {
  Op op;
  storage::Location location = 0;
  uint64_t count = 0;
  Bytes payload;
  /// Distributed-tracing context; propagated on the wire when valid().
  /// Carries only public trace/span ids — never request-derived data.
  obs::TraceContext trace;
};

/// Serializes a request.
Bytes EncodeRequest(const Request& request);

/// Parses a request; rejects truncated or unknown frames.
Result<Request> DecodeRequest(ByteSpan frame);

/// Serializes an OK response carrying `payload`.
Bytes EncodeOkResponse(ByteSpan payload);

/// Serializes an error response carrying the status message.
Bytes EncodeErrorResponse(const Status& status);

/// Parses a response into its payload, converting wire errors back into
/// a Status.
Result<Bytes> DecodeResponse(ByteSpan frame);

/// A published keyword-store manifest: the serialized KeywordMap (a
/// public artifact — the owner built it, the client needs it to resolve
/// keys to pages) plus a monotonically increasing build version so
/// clients can detect rebuilds without re-downloading the body.
struct KeywordManifest {
  Bytes manifest;
  uint64_t version = 0;
};

/// Version of the KEYWORD_MANIFEST request payload format. Servers
/// reject unknown versions so the payload can grow fields later.
inline constexpr uint8_t kKeywordManifestRequestVersion = 1;

/// Request payload: format(1) | cached_version(8). A server whose
/// current version equals `cached_version` answers with no body
/// ("not modified"); pass 0 to always fetch. Exactly 9 bytes — both
/// protocols reject anything else.
Bytes EncodeKeywordManifestRequest(uint64_t cached_version);
Result<uint64_t> DecodeKeywordManifestRequest(ByteSpan payload);

/// Response payload: current_version(8) | body_present(1) | [manifest].
/// The body is absent exactly when the requester's cached version is
/// current. The codec is shared by the storage protocol and the sealed
/// service protocol so both speak the same manifest format.
Bytes EncodeKeywordManifestResponse(const KeywordManifest& manifest,
                                    bool include_body);
Result<KeywordManifest> DecodeKeywordManifestResponse(ByteSpan payload);

/// Version of the READ_PLAN / WRITE_PLAN payload format. Servers
/// reject unknown versions so the payload can grow fields later.
inline constexpr uint8_t kPlanVersion = 1;

/// Plan payload header: version(1) | extra(8).
inline constexpr size_t kPlanHeaderSize = 1 + 8;

/// A kReadPlan or kWritePlan request for `plan` whose payload is the
/// plan header; a WRITE_PLAN caller appends the k+1 slots to it.
Request PlanRequest(Op op, const storage::IoPlan& plan);

/// Server side: checks a plan request against the disk geometry before
/// any disk call. Rejects an unknown version, a payload of the wrong
/// size (the header alone for READ_PLAN, header plus k+1 slots for
/// WRITE_PLAN), a run past the end and an extra slot past the end.
Result<storage::IoPlan> DecodePlanRequest(const Request& request,
                                          uint64_t num_slots,
                                          size_t slot_size);

/// One decoded ADMIN request: which document, and its argument text
/// ("collapsed", "7", "set-bounds 8 32"; empty for none).
struct AdminRequest {
  std::string name;
  std::string arg;
};

/// Version of the ADMIN request payload format. Servers reject unknown
/// versions so the payload can grow fields later.
inline constexpr uint8_t kAdminRequestVersion = 1;
/// Bounds on the two fields; the decoder rejects anything longer.
inline constexpr size_t kMaxAdminNameSize = 32;
inline constexpr size_t kMaxAdminArgSize = 256;

/// Request payload: version(1) | name_size(1) | name | arg. The name is
/// 1..kMaxAdminNameSize bytes of [a-z0-9_-]; the argument, the rest of
/// the payload, is at most kMaxAdminArgSize bytes of printable ASCII.
/// The codec is shared by the storage protocol and the sealed service
/// protocol.
Bytes EncodeAdminRequest(std::string_view name, std::string_view arg = {});
Result<AdminRequest> DecodeAdminRequest(ByteSpan payload);

/// Server side of the ADMIN op on either protocol: decodes `payload`
/// and renders the named document from `registry` (null: the endpoint
/// serves no documents). Every malformed request fails before a
/// handler runs.
Result<std::string> ServeAdmin(const obs::AdminRegistry* registry,
                               ByteSpan payload);

}  // namespace shpir::net

#endif  // SHPIR_NET_WIRE_H_
