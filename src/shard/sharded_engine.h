#ifndef SHPIR_SHARD_SHARDED_ENGINE_H_
#define SHPIR_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/capprox_pir.h"
#include "core/engine_stack.h"
#include "core/pir_engine.h"
#include "crypto/secure_random.h"
#include "hardware/coprocessor.h"
#include "hardware/profile.h"
#include "obs/eventlog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/privacy_monitor.h"
#include "obs/profiler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "shard/dispatcher.h"
#include "shard/shard_plan.h"
#include "storage/access_trace.h"
#include "storage/disk.h"
#include "storage/span_disk.h"

namespace shpir::shard {

/// Sharded serving runtime: n pages range-partitioned across S
/// independent c-approximate engines (one secure device, disk and
/// worker thread each), behind a bounded-queue Dispatcher.
///
/// Privacy. Every logical Retrieve fans out one query to EVERY shard:
/// the real (local) id to the owning shard and an independently uniform
/// dummy id to each other shard. The adversary watching all S disks
/// therefore sees one Fig. 3 round per shard per logical request,
/// regardless of which shard owns the target — the *choice of shard*
/// leaks nothing, and within each shard the relocation distribution
/// stays bounded by that shard's c (Eq. 5 at (n_i, m_i, k_i)). Updates
/// fan out the same way and are indistinguishable from Retrieve on
/// every shard.
///
/// Cost. With per-device caches (ShardPlan::CacheMode::kPerDevice),
/// k_i ≈ k_1/S, so even though all S shards do work per logical query,
/// each shard's round costs ~1/S of the unsharded round and the shards
/// run in parallel: aggregate throughput grows ~S× (bench_sharding
/// measures this in simulated device time).
class ShardedPirEngine : public core::PirEngine {
 public:
  struct Options {
    /// Client-addressable pages n, payload size B.
    uint64_t num_pages = 0;
    size_t page_size = 0;
    /// Cache budget m: per shard device (kPerDevice) or split across
    /// shards (kSplitSingleDevice) — see ShardPlan.
    uint64_t cache_pages = 0;
    double privacy_c = 2.0;
    uint64_t shards = 1;
    ShardPlan::CacheMode cache_mode = ShardPlan::CacheMode::kPerDevice;
    /// Admission control: per-shard FIFO capacity.
    size_t queue_depth = 64;
    /// Per-request deadline measured from submission; zero disables.
    std::chrono::nanoseconds deadline{0};
    /// Hardware simulated per shard device.
    hardware::HardwareProfile profile = hardware::HardwareProfile::Ibm4764();
    /// Deterministic seed; shard i's device seeds with seed + i and its
    /// dummy generator with seed + 1e6 + i. nullopt draws OS entropy.
    std::optional<uint64_t> seed;
    /// Record each shard's adversary-visible access trace (analysis
    /// builds; costs memory per access).
    bool enable_traces = false;
    /// Forwarded to each shard's CApproxPir (Eq. 7 accounting).
    bool enforce_secure_memory = true;
    /// Each shard's untrusted disk (unowned; must outlive the engine):
    /// shard i runs over disks[i], which needs the slot count and size
    /// its engine asks for. Empty gives every shard its own MemoryDisk.
    std::vector<storage::Disk*> disks;
  };

  /// Ground-truth hook for privacy analysis: shard `shard` served its
  /// `shard_request_index`-th query for local page `local_id`;
  /// `dummy` distinguishes cover traffic from real queries. Invoked on
  /// the shard's worker thread — the callback must be thread-safe
  /// across shards. This is an analysis-side oracle, NOT part of the
  /// adversary's view.
  using ShardQueryObserver =
      std::function<void(uint64_t shard, uint64_t shard_request_index,
                         storage::PageId local_id, bool dummy)>;

  static Result<std::unique_ptr<ShardedPirEngine>> Create(
      const Options& options);

  /// Owner-side bulk load; `pages[i]` becomes global id i. Splits the
  /// pages across shards and initializes each engine.
  Status Initialize(const std::vector<storage::Page>& pages);

  /// --- PirEngine ------------------------------------------------------

  /// Fans out to every shard (real query + S-1 dummies) and returns at
  /// the real round's served point, while the owner shard finishes the
  /// round. ResourceExhausted when any shard queue is full;
  /// DeadlineExceeded when the real query expired in its queue.
  Result<Bytes> Retrieve(storage::PageId id) override;

  /// Retrieve under a distributed-tracing context: with tracing enabled
  /// (EnableTracing) and an active `ctx`, the fan-out emits a
  /// "shard_fanout" span whose children are, per shard, a retroactive
  /// "queue_wait" span and a "shard_query" span — identical in name for
  /// the real and cover queries, because distinguishing them would
  /// reveal the owning shard and thereby bits of the page id.
  Result<Bytes> TracedRetrieve(storage::PageId id,
                               const obs::TraceContext& ctx) override;

  /// §4.3 update, fanned out like Retrieve (dummies on other shards).
  Status Modify(storage::PageId id, Bytes data) override;
  Status Remove(storage::PageId id) override;
  // Insert is not supported (global id allocation across shards would
  // need an owner-side directory); inherits Unimplemented.

  uint64_t num_pages() const override { return plan_.total_pages(); }
  size_t page_size() const override { return page_size_; }
  const char* name() const override { return "sharded-c-approx"; }

  /// --- Runtime --------------------------------------------------------

  /// Blocks until all shard queues are empty and workers idle.
  void WaitIdle() { dispatcher_->WaitIdle(); }

  /// Graceful shutdown: stop admissions, run queued work, join workers.
  /// Subsequent Retrieves fail with FailedPrecondition.
  void Drain() { dispatcher_->Drain(); }

  /// --- Online retuning ------------------------------------------------

  /// Requests an online block-size change on one shard's engine (see
  /// CApproxPir::RequestBlockSize for the safety argument; the change
  /// lands at that shard's next scan-period boundary). The engine is
  /// single-threaded per shard worker, so the request is submitted as a
  /// job on the shard's dispatcher queue and this call blocks until the
  /// worker ran it: ResourceExhausted when the queue is full (the
  /// caller — typically the controller — retries next tick),
  /// FailedPrecondition after Drain, otherwise the engine's verdict.
  Status RequestShardBlockSize(uint64_t shard, uint64_t new_k);

  /// Aggregate control-plane view of one shard, safe to read from any
  /// thread: published (atomic) engine state, the live c-estimate, and
  /// the shard's queue depth. Everything here is an aggregate the trust
  /// boundary already exports — no page ids, no request indices.
  struct ShardControlState {
    uint64_t block_size = 0;          // Applied k (published).
    uint64_t pending_block_size = 0;  // 0 when no transition pending.
    uint64_t transitions = 0;         // Applied retunes, lifetime.
    uint64_t disk_slots = 0;
    uint64_t cache_pages = 0;
    double c_theory = 0.0;    // Eq. 5 at the published k.
    double c_estimate = 0.0;  // Live monitor estimate; 0 while warming.
    size_t queue_depth = 0;
    size_t queue_capacity = 0;
  };
  ShardControlState ShardControl(uint64_t shard) const;

  /// --- Introspection --------------------------------------------------

  const ShardPlan& plan() const { return plan_; }
  uint64_t shards() const { return plan_.shards(); }
  Dispatcher& dispatcher() { return *dispatcher_; }

  /// Per-shard internals, exposed for analysis and benches (ground
  /// truth a deployment would keep inside each device).
  core::CApproxPir* shard_engine(uint64_t shard) {
    return shards_[shard]->engine;
  }
  hardware::SecureCoprocessor* shard_device(uint64_t shard) {
    return &shards_[shard]->stack->cpu();
  }
  /// Null unless Options::enable_traces.
  storage::AccessTrace* shard_trace(uint64_t shard) {
    return shards_[shard]->trace.get();
  }

  void set_shard_query_observer(ShardQueryObserver observer) {
    observer_ = std::move(observer);
  }

  /// --- Observability --------------------------------------------------

  /// Registers shard-level aggregate instruments (queue depth,
  /// admission rejections, dummy/logical query counters, fan-out
  /// latency) plus each shard engine's instruments in `registry`
  /// (unowned; must outlive the engine). Per-shard engine counters
  /// share names, so they export as fleet-wide totals — no per-shard
  /// (let alone per-request) breakdown leaves the trust boundary.
  void EnableMetrics(obs::MetricsRegistry* registry);

  /// Attaches a span collector (unowned; must outlive the engine, pass
  /// nullptr to detach) to the fan-out path, every shard engine and
  /// every shard disk: sampled queries entered via TracedRetrieve then
  /// produce the full span tree down to per-shard disk I/O.
  void EnableTracing(obs::Tracer* tracer);

  /// Creates one online PrivacyMonitor per shard (scan period and
  /// configured c taken from that shard's engine) and attaches the
  /// monitors' aggregate instruments to `registry` (may be null: the
  /// monitors still run, for Estimate()/breaches() polling). The shared
  /// gauge tracks the most recently refreshed shard; the counters
  /// aggregate fleet-wide. `window` is the per-shard sliding window in
  /// relocations.
  void EnablePrivacyMonitor(obs::MetricsRegistry* registry,
                            uint64_t window = 1 << 16);

  /// Forces every shard monitor to refresh its gauge and breach check
  /// now (deterministic reads before a snapshot).
  void PublishPrivacyEstimates();

  /// Null until EnablePrivacyMonitor.
  obs::PrivacyMonitor* shard_monitor(uint64_t shard) {
    return shards_[shard]->monitor.get();
  }

  /// Attaches the sampling profiler (unowned; must outlive the engine)
  /// to every shard engine, and folds dispatcher queue waits in as
  /// "shard_fanout;queue_wait" external samples. Real and cover
  /// queries profile identically — same head-sampling counter, same
  /// frame vocabulary — so the profile stays target-independent.
  void EnableProfiling(obs::Profiler* profiler);

  /// Creates one SloTracker per shard plus a logical-request tracker
  /// at the fan-out level. Every shard query — real or cover — records
  /// into its shard's tracker identically; admission rejections and
  /// deadline expiries count against availability. Only the logical
  /// tracker exports shpir_slo_* gauges on `registry` (may be null);
  /// per-shard state is served by SloStatusJson() (the "slo" admin
  /// document), keyed by public shard index.
  void EnableSlo(const obs::SloTracker::Objectives& objectives,
                 obs::MetricsRegistry* registry = nullptr);

  /// Closed-schema status document: logical tracker plus one entry per
  /// shard. Empty "{}" until EnableSlo.
  std::string SloStatusJson();

  /// Null until EnableSlo.
  obs::SloTracker* shard_slo(uint64_t shard) {
    return shards_[shard]->slo.get();
  }
  obs::SloTracker* logical_slo() { return logical_slo_.get(); }

  /// Attaches the structured event log (unowned; must outlive the
  /// engine, nullptr detaches). The fan-out then emits one event per
  /// logical query at kDebug plus kWarn events on admission rejection —
  /// always at the logical level, never per real-vs-cover shard query,
  /// so the emitted event *shapes* are identical whichever shard owns
  /// the target (tests/incident_shape_test.cc).
  void EnableEventLog(obs::EventLog* log);

  /// Attaches the flight recorder (unowned; must outlive the engine,
  /// nullptr detaches) and registers the runtime's edge triggers on it:
  /// privacy-monitor breaches (summed across shards), logical SLO
  /// alert transitions, and dispatcher overload (admission rejections +
  /// deadline expirations). Also sets the recorder's config fingerprint
  /// from the public plan parameters. The fan-out polls the recorder
  /// every kRecorderPollPeriod logical queries and on every rejection.
  void EnableFlightRecorder(obs::FlightRecorder* recorder);

  /// Public plan/build description used as the incident config
  /// fingerprint ("shards=4 pages=4096 k=16 c=2.00 ...").
  std::string ConfigFingerprint() const;

  /// Health/readiness JSON, the "health" admin document (the
  /// load-balancer surface): dispatcher liveness and depth, SLO/privacy
  /// state, build identity.
  /// Aggregate-only, like every exported surface.
  std::string HealthJson();

 private:
  /// One shard's stack, in destruction-order-sensitive member order.
  struct Shard {
    std::unique_ptr<storage::MemoryDisk> disk;  // Unless Options::disks.
    std::unique_ptr<storage::SpanDisk> span_disk;
    std::unique_ptr<storage::AccessTrace> trace;   // Optional.
    std::unique_ptr<obs::PrivacyMonitor> monitor;  // Optional; pre-engine.
    std::unique_ptr<obs::SloTracker> slo;          // Optional.
    std::unique_ptr<core::EngineStack> stack;
    core::CApproxPir* engine = nullptr;  // The stack's.
    /// Touched only by this shard's worker thread.
    crypto::SecureRandom dummy_rng;
    uint64_t requests_served = 0;

    explicit Shard(crypto::SecureRandom rng) : dummy_rng(std::move(rng)) {}
  };

  ShardedPirEngine(ShardPlan plan, size_t page_size, Options options);

  /// One shard query's engine call: runs the round for `local` under
  /// the "shard_query" span context, hands the answer to the sink at the
  /// round's served point, and returns the whole round's status.
  using ShardCall = std::function<Status(
      core::CApproxPir*, storage::PageId, const obs::TraceContext&,
      const core::CApproxPir::ServedSink&)>;

  /// The Retrieve call, run by every cover query and by real Retrieves.
  static Status RetrieveOnShard(core::CApproxPir* engine,
                                storage::PageId local,
                                const obs::TraceContext& ctx,
                                const core::CApproxPir::ServedSink& served);

  /// Shared fan-out body for Retrieve/Modify/Remove. `real` runs on the
  /// owner shard's worker with the local id, and the caller is answered
  /// at its round's served point while the worker finishes the round.
  /// Cover Retrieves run everywhere else. `ctx` parents the fan-out
  /// spans (inactive context = no tracing).
  Result<Bytes> FanOut(storage::PageId id, const obs::TraceContext& ctx,
                       ShardCall real);

  /// Runs one real or cover query on shard `shard` (worker thread),
  /// with its spans parented under `fan_ctx`: the same span, observer
  /// call, SLO sample and finish-failure accounting for both. `answer`
  /// receives the answer at the served point, or the error that ended
  /// the query before it, exactly once. Returns the round's status.
  Status RunShardQuery(uint64_t shard, const obs::TraceContext& fan_ctx,
                       storage::PageId local, bool dummy,
                       const ShardCall& call,
                       const std::function<void(Result<Bytes>)>& answer);

  /// A query that expired in shard `shard`'s queue fails its SLO sample.
  void RecordExpiredQuery(uint64_t shard);

  /// Records the retroactive per-shard "queue_wait" span (submission to
  /// worker pickup). No-op without an active context.
  void RecordShardQueueWait(const obs::TraceContext& fan_ctx,
                            uint64_t submit_ns, int32_t shard);

  bool metered() const { return instruments_.logical_queries != nullptr; }

  ShardPlan plan_;
  size_t page_size_;
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardQueryObserver observer_;
  obs::Tracer* tracer_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::EventLog* eventlog_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  /// Recorder that already holds this engine's triggers (registration
  /// is once per recorder; re-attaching must not duplicate sources).
  obs::FlightRecorder* trigger_host_ = nullptr;
  /// Logical queries between recorder polls on the fan-out path.
  static constexpr uint64_t kRecorderPollPeriod = 64;
  std::atomic<uint64_t> fanout_count_{0};
  std::unique_ptr<obs::SloTracker> logical_slo_;

  struct Instruments {
    obs::Counter* logical_queries = nullptr;
    obs::Counter* dummy_queries = nullptr;
    obs::Counter* dummy_failures = nullptr;
    obs::Counter* finish_failures = nullptr;
    obs::Histogram* fanout_latency_ns = nullptr;
    obs::Gauge* shard_count = nullptr;
    obs::Gauge* block_size_k = nullptr;
    obs::Gauge* achieved_privacy_c = nullptr;
  };
  Instruments instruments_;

  /// Declared last: its destructor drains and joins the workers while
  /// the shard stacks above are still alive.
  std::unique_ptr<Dispatcher> dispatcher_;
};

}  // namespace shpir::shard

#endif  // SHPIR_SHARD_SHARDED_ENGINE_H_
