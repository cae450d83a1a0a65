#ifndef SHPIR_NET_PIR_SERVICE_H_
#define SHPIR_NET_PIR_SERVICE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "core/pir_engine.h"
#include "net/secure_channel.h"
#include "net/wire.h"
#include "obs/admin.h"
#include "obs/trace.h"

namespace shpir::net {

/// The three-party query protocol of Fig. 1: clients talk to the secure
/// hardware through end-to-end encrypted records that the database
/// server merely relays. Requests carry the operation and page id;
/// responses carry the page payload — all invisible to the relay.
///
/// Request plaintext:  op(1) | id(8) | payload...
/// Response plaintext: status(1) | payload...
///
/// Trace propagation: a client with tracing enabled wraps the request
/// plaintext in a TRACED envelope — op(1, kOpTraced) | context(17) |
/// inner request — inside the sealed record, so the relay sees nothing
/// and untraced requests stay byte-identical.

/// Runs inside the trusted boundary next to the engine.
class PirServiceServer {
 public:
  /// Produces the current keyword-store manifest for the
  /// KEYWORD_MANIFEST op. The manifest is public by design (every
  /// client receives the same artifact); versioning lets cached clients
  /// skip the body. Null means the op answers Unimplemented.
  using KeywordManifestProvider = std::function<KeywordManifest()>;

  /// Relay-side timestamps for one request: when its frame arrived and
  /// when the hub dequeued it for handling. Used to reconstruct a
  /// retroactive "hub_queue_wait" span for sampled traces.
  struct QueueTiming {
    uint64_t arrival_ns = 0;
    uint64_t dequeue_ns = 0;
  };

  /// The session must be the server side of the handshake with this
  /// client. Any PirEngine works — the paper's single engine, a
  /// ThreadSafeEngine wrapper, or the sharded serving runtime; engines
  /// without update support answer the update ops with Unimplemented.
  /// The pointers are unowned and optional. `tracer` records
  /// service-side spans for requests arriving in a sampled TRACED
  /// envelope. `admin` serves the ADMIN op; because ADMIN travels
  /// inside the sealed session, only authenticated clients reach it,
  /// and every document it holds must be aggregate and
  /// request-index-free (see docs/OBSERVABILITY.md).
  PirServiceServer(core::PirEngine* engine, SecureSession session,
                   obs::Tracer* tracer = nullptr,
                   const obs::AdminRegistry* admin = nullptr,
                   KeywordManifestProvider keyword_manifest = nullptr)
      : engine_(engine),
        session_(std::move(session)),
        tracer_(tracer),
        admin_(admin),
        keyword_manifest_(std::move(keyword_manifest)) {}

  /// Decrypts one request record, executes it, returns the sealed
  /// response record. Protocol-level failures (bad record) are errors;
  /// engine-level failures are encoded into the response. `timing`
  /// (optional) carries the relay-side queue timestamps.
  Result<Bytes> HandleRecord(ByteSpan record,
                             const QueueTiming* timing = nullptr);

 private:
  core::PirEngine* engine_;
  SecureSession session_;
  obs::Tracer* tracer_;
  const obs::AdminRegistry* admin_;
  KeywordManifestProvider keyword_manifest_;
};

/// The client side. `deliver` sends a sealed request record through the
/// untrusted relay and returns the sealed response record.
class PirServiceClient {
 public:
  using Deliver = std::function<Result<Bytes>(ByteSpan record)>;

  PirServiceClient(SecureSession session, Deliver deliver)
      : session_(std::move(session)), deliver_(std::move(deliver)) {}

  /// Privately retrieves page `id`.
  Result<Bytes> Retrieve(storage::PageId id);

  /// Replaces page `id`'s payload.
  Status Modify(storage::PageId id, ByteSpan data);

  /// Inserts a new page; returns its id.
  Result<storage::PageId> Insert(ByteSpan data);

  /// Deletes page `id`.
  Status Remove(storage::PageId id);

  /// Fetches the keyword-store manifest. `cached_version` is the build
  /// version the client already holds (0 = none): when it is current
  /// the response carries the version but no body, so rebuild polling
  /// is one small sealed record.
  Result<KeywordManifest> FetchKeywordManifest(uint64_t cached_version = 0);

  /// Fetches admin document `name` ("stats", "health", ...) with the
  /// optional argument text, e.g. Admin("profile", "collapsed").
  Result<std::string> Admin(std::string_view name,
                            std::string_view arg = {});

  /// Attaches a span collector (unowned; nullptr detaches). Sampled
  /// calls then emit "client_query"/"client_encode" spans and propagate
  /// their context to the service inside the sealed record.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  Result<Bytes> Call(uint8_t op, storage::PageId id, ByteSpan payload);

  SecureSession session_;
  Deliver deliver_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace shpir::net

#endif  // SHPIR_NET_PIR_SERVICE_H_
