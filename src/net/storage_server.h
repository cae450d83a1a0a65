#ifndef SHPIR_NET_STORAGE_SERVER_H_
#define SHPIR_NET_STORAGE_SERVER_H_

#include <string>

#include "common/mutex.h"
#include "common/result.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/eventlog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "storage/disk.h"

namespace shpir::net {

/// The service provider of the two-party model: a dumb block store that
/// executes wire-protocol requests against its local disk. It only ever
/// sees sealed pages; all intelligence (and all secrets) stay with the
/// owner.
///
/// Handle() is thread-safe, so one server can sit behind a listener
/// that serves several connections at once. Every disk op runs under
/// one data mutex, so a round's READ_PLAN and WRITE_PLAN are each
/// atomic against another connection's writes. GEOMETRY, ADMIN and
/// KEYWORD_MANIFEST take no data lock: an operator's fetch never waits
/// behind an owner's round.
class StorageServer {
 public:
  /// `disk` is unowned and must outlive the server. Every other
  /// argument is optional and unowned. The provider is untrusted, so
  /// everything these objects hold is public by assumption; they only
  /// ever see wire-level metadata and volume aggregates.
  /// - `metrics` gets the shpir_provider_* instruments.
  /// - `tracer` records one provider_* span per request that arrives in
  ///   a sampled kTraced envelope.
  /// - `profiler` head-samples requests into provider_* folded stacks.
  /// - `slo` records every data request's handle latency and outcome,
  ///   and every undecodable frame as a failure; ADMIN requests are
  ///   not recorded.
  /// - `eventlog` records provider lifecycle events.
  /// - `recorder` is polled on every error, so trigger edges seal
  ///   bundles promptly.
  /// - `admin` serves the kAdmin op; without it every document answers
  ///   NotFound.
  explicit StorageServer(storage::Disk* disk,
                         obs::MetricsRegistry* metrics = nullptr,
                         obs::Tracer* tracer = nullptr,
                         obs::Profiler* profiler = nullptr,
                         obs::SloTracker* slo = nullptr,
                         obs::EventLog* eventlog = nullptr,
                         obs::FlightRecorder* recorder = nullptr,
                         const obs::AdminRegistry* admin = nullptr);

  /// Executes one request frame and returns the response frame. Errors
  /// are encoded into the response (the transport never fails).
  Bytes Handle(ByteSpan request_frame);

  /// Publishes the keyword-store manifest served by the kKeywordManifest
  /// op. The manifest is a PUBLIC artifact (the owner ships it to every
  /// client); `version` must increase across rebuilds so cached clients
  /// refetch. Until published, the op answers Unimplemented.
  /// Thread-safe.
  void PublishKeywordManifest(Bytes manifest, uint64_t version);

 private:
  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* read_slots = nullptr;
    obs::Counter* write_slots = nullptr;
    obs::Counter* errors = nullptr;
  };
  bool metered() const { return instruments_.requests != nullptr; }

  /// Dispatches one decoded request (the body of Handle, so the
  /// profiling/SLO wrapper can observe the outcome uniformly).
  Bytes Dispatch(const Request& request);

  /// The disk ops: every request that reads or writes slots.
  Bytes DispatchData(const Request& request) REQUIRES(data_mutex_);

  /// Counts one failed request and encodes its error response.
  Bytes Fail(const Status& status);

  /// Disk calls go through data_mutex_; the geometry is fixed at
  /// construction and read without it.
  storage::Disk* const disk_;
  obs::Tracer* tracer_;
  obs::Profiler* profiler_;
  obs::SloTracker* slo_;
  obs::EventLog* eventlog_;
  obs::FlightRecorder* recorder_;
  const obs::AdminRegistry* admin_;
  Instruments instruments_;
  /// Serializes every disk op (see the class comment).
  common::Mutex data_mutex_;
  common::Mutex manifest_mutex_;
  /// Published keyword manifest (empty until PublishKeywordManifest).
  KeywordManifest keyword_manifest_ GUARDED_BY(manifest_mutex_);
  bool keyword_manifest_published_ GUARDED_BY(manifest_mutex_) = false;
};

/// The storage provider's "health" document: a stateless store is ready
/// whenever it can answer; "degraded" reflects a firing SLO burn rule.
/// Each argument is optional.
std::string StorageHealthJson(obs::SloTracker* slo,
                              const obs::EventLog* eventlog,
                              const obs::FlightRecorder* recorder);

/// Transport that dispatches directly into an in-process StorageServer.
/// Latency and bandwidth are modeled by the owner-side cost accounting,
/// not by real sleeping, so simulations are fast and deterministic.
class DirectTransport : public Transport {
 public:
  explicit DirectTransport(StorageServer* server) : server_(server) {}

  Result<Bytes> RoundTrip(ByteSpan request) override {
    return server_->Handle(request);
  }

 private:
  StorageServer* server_;
};

}  // namespace shpir::net

#endif  // SHPIR_NET_STORAGE_SERVER_H_
