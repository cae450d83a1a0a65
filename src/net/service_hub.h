#ifndef SHPIR_NET_SERVICE_HUB_H_
#define SHPIR_NET_SERVICE_HUB_H_

#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "common/result.h"
#include "core/pir_engine.h"
#include "crypto/secure_random.h"
#include "net/pir_service.h"
#include "net/secure_channel.h"
#include "obs/admin.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace shpir::net {

/// Multi-client front end for the Fig. 1 service: manages one
/// SecureSession per client over a shared engine, with a wire-level
/// handshake. The relay (untrusted server) passes opaque frames:
///
///   HELLO frame:   'H' | client_id(8) | client_nonce(16)
///   HELLO reply:   'H' | server_nonce(16)
///   DATA frame:    'D' | client_id(8) | sealed record
///   DATA reply:    sealed response record
///
/// Client ids are chosen by clients (e.g. random); per-client keys are
/// derived from the pre-shared key, both nonces *and* the client id, so
/// clients cannot impersonate each other's streams.
///
/// Sessions are served concurrently. The hub mutex guards only the
/// session table (lookup, HELLO, eviction, the data clock). Each
/// session has its own mutex, which orders its SecureSession sequence
/// numbers and is the only lock held across the engine call, so
/// different clients' requests reach the engine at the same time.
///
/// HELLO proves nothing, so any peer can open sessions. The table holds
/// at most kMaxSessions; a HELLO for a new id when it is full evicts the
/// session whose last authenticated DATA record is oldest, and sessions
/// that never sent one go first. An evicted client's DATA frames answer
/// FailedPrecondition until it handshakes again.
class ServiceHub {
 public:
  static constexpr size_t kMaxSessions = 256;

  /// `engine` is unowned; `pre_shared_key` is the key clients hold.
  /// The engine must be safe to call from several threads at once: the
  /// sharded runtime in src/shard/ is (requests fan out across shard
  /// workers), and a single paper engine goes behind
  /// core::ThreadSafeEngine (requests serialize on the coprocessor).
  /// The remaining arguments are optional; pointers are unowned and
  /// must outlive the hub.
  /// - `metrics` gets the hub's shpir_net_* instruments.
  /// - `tracer` turns on distributed tracing: sampled requests get
  ///   hub_queue_wait / service_handle spans. hub_queue_wait runs from
  ///   the frame's arrival until its session's lock is held.
  /// - `admin` serves the authenticated ADMIN op for every session the
  ///   hub establishes. It must be fully built before serving; its
  ///   handlers must be thread-safe and return aggregate,
  ///   target-independent data only.
  /// - `keyword_manifest` backs the KEYWORD_MANIFEST op: it returns the
  ///   current public keyword-store manifest and its build version (see
  ///   src/keyword/). Must be thread-safe.
  ServiceHub(core::PirEngine* engine, Bytes pre_shared_key,
             uint64_t rng_seed = 0,
             obs::MetricsRegistry* metrics = nullptr,
             obs::Tracer* tracer = nullptr,
             const obs::AdminRegistry* admin = nullptr,
             PirServiceServer::KeywordManifestProvider keyword_manifest =
                 nullptr);

  /// Handles one wire frame from any client; returns the reply frame.
  /// Thread-safe. A HELLO may replace or evict a session while one of
  /// its DATA frames is in the engine: that call completes, its reply
  /// is sealed by the old session, and it no longer counts toward the
  /// eviction order.
  Result<Bytes> HandleFrame(ByteSpan frame);

  /// Number of established client sessions. Thread-safe.
  size_t sessions() const {
    common::MutexLock lock(mutex_);
    return servers_.size();
  }

  /// Client-side helper: builds the HELLO frame for `client_id`.
  static Bytes MakeHello(uint64_t client_id, ByteSpan client_nonce);

  /// Client-side helper: parses the HELLO reply and derives the
  /// client's session.
  static Result<SecureSession> CompleteHandshake(ByteSpan reply,
                                                 ByteSpan pre_shared_key,
                                                 uint64_t client_id,
                                                 ByteSpan client_nonce);

  /// Client-side helper: wraps a sealed record into a DATA frame.
  static Bytes MakeData(uint64_t client_id, ByteSpan record);

  /// Derives the per-client key psk' = HMAC(psk, "client" || id).
  static Bytes ClientKey(ByteSpan pre_shared_key, uint64_t client_id);

 private:
  /// Aggregate instruments; all null when the hub has no registry.
  struct Instruments {
    obs::Counter* hellos = nullptr;
    obs::Counter* handshake_failures = nullptr;
    obs::Counter* data_frames = nullptr;
    obs::Counter* frames_rejected = nullptr;
    obs::Counter* frame_bytes_in = nullptr;
    obs::Counter* frame_bytes_out = nullptr;
    obs::Counter* sessions_evicted = nullptr;
    obs::Gauge* sessions = nullptr;
  };
  /// One client's server side. Shared with the DATA calls in flight,
  /// so a HELLO may drop it from the table while one is in the engine.
  struct Session {
    explicit Session(PirServiceServer s) : server(std::move(s)) {}
    common::Mutex mutex;
    PirServiceServer server GUARDED_BY(mutex);
  };
  struct Entry {
    std::shared_ptr<Session> session;
    /// Value of data_clock_ at the session's last authenticated DATA
    /// record; 0 until it sends one.
    uint64_t last_data = 0;
  };

  Result<Bytes> HandleHello(uint64_t client_id, ByteSpan frame);
  Result<Bytes> HandleData(uint64_t client_id, ByteSpan frame,
                           uint64_t arrival_ns);

  /// Drops the session whose last authenticated DATA record is oldest.
  /// The table must not be empty.
  void EvictOne() REQUIRES(mutex_);
  bool metered() const { return instruments_.hellos != nullptr; }

  core::PirEngine* engine_;
  Bytes pre_shared_key_;
  obs::Tracer* tracer_;
  const obs::AdminRegistry* admin_;
  PirServiceServer::KeywordManifestProvider keyword_manifest_;
  Instruments instruments_;  // Written by the ctor only; const afterwards.
  mutable common::Mutex mutex_;
  /// Server-nonce generator; drawn from under mutex_ in HandleHello.
  crypto::SecureRandom rng_ GUARDED_BY(mutex_);
  std::unordered_map<uint64_t, Entry> servers_ GUARDED_BY(mutex_);
  /// Counts authenticated DATA records; orders sessions for eviction.
  uint64_t data_clock_ GUARDED_BY(mutex_) = 0;
};

}  // namespace shpir::net

#endif  // SHPIR_NET_SERVICE_HUB_H_
