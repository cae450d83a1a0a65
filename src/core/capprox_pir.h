#ifndef SHPIR_CORE_CAPPROX_PIR_H_
#define SHPIR_CORE_CAPPROX_PIR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/secret.h"
#include "core/page_map.h"
#include "core/pir_engine.h"
#include "hardware/coprocessor.h"
#include "obs/privacy_monitor.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "storage/access_trace.h"
#include "storage/page.h"

namespace shpir::core {

/// The paper's c-approximate PIR engine (Fig. 3 plus the §4.3 update
/// protocol).
///
/// Layout. The disk holds `disk_slots` sealed pages (the client's
/// `num_pages` real pages plus `insert_reserve` spares, padded with
/// dummies to a multiple of the block size k). The device's page cache
/// holds a further m pages, so the total id space is disk_slots + m.
/// Every page — real, spare or padding — carries a unique id and is
/// tracked in the pageMap; dummies are simply ids the client never sees.
///
/// Per query, the engine reads the next k-page block (round-robin), plus
/// one extra page (the requested page, or a uniformly random non-cached,
/// non-block page on a cache/block hit), moves the requested page into
/// the cache, evicts a uniformly random cached page into a uniformly
/// random slot of the block, re-encrypts all k+1 pages with fresh nonces
/// and writes them back. Cost is constant: 4 seeks + 2(k+1) pages over
/// the link and through the crypto engine (Eq. 8).
class CApproxPir : public PirEngine {
 public:
  struct Options {
    /// Number of client-addressable pages n.
    uint64_t num_pages = 0;
    /// Page payload size B (bytes).
    size_t page_size = 0;
    /// Cache capacity m (pages).
    uint64_t cache_pages = 0;
    /// Target privacy parameter c; used to derive k via Eq. 6 when
    /// block_size is 0. Must be > 1 (use TrivialPir for c == 1).
    double privacy_c = 2.0;
    /// Explicit block size k; overrides privacy_c when nonzero.
    uint64_t block_size = 0;
    /// Spare dummy pages reserved for future Insert() calls (§4.3).
    uint64_t insert_reserve = 0;
    /// When true, Create() reserves the engine's data structures
    /// (pageMap, pageCache, serverBlock) against the coprocessor's
    /// secure-memory budget and fails if they do not fit (Eq. 7).
    bool enforce_secure_memory = true;

    /// ABLATION (breaks privacy; for experiments only): skip the Fig. 3
    /// line 18 uniformization swap — the evicted cache page always lands
    /// in slot 0 of the scanned block instead of a uniformly random one.
    bool ablation_skip_uniform_swap = false;

    /// ABLATION (breaks privacy; for experiments only): evict cache
    /// slots round-robin instead of uniformly at random, destroying the
    /// geometric residency-time argument behind Eqs. 1-5.
    bool ablation_round_robin_eviction = false;
  };

  /// Per-relocation notification for privacy analysis: page `id` was
  /// written to disk location `loc` while serving request `request_index`.
  using RelocationObserver =
      std::function<void(storage::PageId id, storage::Location loc,
                         uint64_t request_index)>;

  /// Per-cache-entry notification: page `id` entered the secure cache
  /// while serving request `request_index`. Together with the relocation
  /// observer this gives analysis code the ground-truth cache residency
  /// intervals the privacy model (Eqs. 1-5) reasons about.
  using CacheEntryObserver =
      std::function<void(storage::PageId id, uint64_t request_index)>;

  /// Statistics over the engine's lifetime.
  struct Stats {
    uint64_t queries = 0;      // Retrieve + Modify + Remove + Insert.
    uint64_t cache_hits = 0;   // Requested page was cached.
    uint64_t block_hits = 0;   // Requested page sat in the scanned block.
    uint64_t inserts = 0;
    uint64_t removes = 0;
    uint64_t modifies = 0;
  };

  /// Creates an engine on `cpu` (unowned, must outlive the engine).
  /// The coprocessor's disk must have exactly DiskSlots(options) slots
  /// of cpu->sealed_size() bytes. `trace` (optional, unowned) is marked
  /// with one BeginRequest per client operation.
  static Result<std::unique_ptr<CApproxPir>> Create(
      hardware::SecureCoprocessor* cpu, const Options& options,
      storage::AccessTrace* trace = nullptr);

  /// Number of disk slots the engine needs for `options` (real pages +
  /// insert reserve + cache seed, padded to a multiple of k). Errors if
  /// the options are inconsistent.
  static Result<uint64_t> DiskSlots(const Options& options);

  /// Loads the database. `pages[i]` becomes page id i; fewer than
  /// num_pages entries is allowed (missing pages start zero-filled).
  /// Pages are sealed and placed under a fresh in-device permutation.
  /// This is the owner-side bulk load; see ObliviousShuffle for
  /// re-permuting data already resident on the untrusted disk.
  Status Initialize(const std::vector<storage::Page>& pages);

  /// Receives a round's answer at its served point: once the round has
  /// read, opened and checked all k+1 pages, taken the requested payload
  /// and applied Modify's bytes, and before it swaps, re-seals and
  /// writes back. Retrieve answers with the payload; Modify and Remove
  /// answer with no bytes. Called on the round's thread, at most once
  /// per call; a call that fails before its served point returns its
  /// error and never calls the sink.
  using ServedSink = std::function<void(Bytes answer)>;

  /// --- PirEngine ---------------------------------------------------------

  /// Fig. 3 Retrieve. Constant cost per call.
  Result<Bytes> Retrieve(storage::PageId id) override;

  /// Retrieve under a distributed-tracing context: when tracing is
  /// enabled (EnableTracing) and `ctx` is active, the round emits an
  /// "engine_round" span with the protocol phases as children. The
  /// context carries only public trace/span ids — never the page id.
  Result<Bytes> TracedRetrieve(storage::PageId id,
                               const obs::TraceContext& ctx) override;

  /// TracedRetrieve answered early: `served` receives the payload at
  /// the served point, and the call returns once the round has written
  /// back and committed, with the whole round's status. The same round
  /// as the call without a sink; the sharded runtime answers its
  /// callers this way while the shard finishes the round.
  Status TracedRetrieve(storage::PageId id, const obs::TraceContext& ctx,
                        const ServedSink& served);

  uint64_t num_pages() const override { return options_.num_pages; }
  size_t page_size() const override { return options_.page_size; }
  const char* name() const override { return "c-approx"; }

  /// --- Updates (§4.3) ----------------------------------------------------

  /// Replaces the payload of page `id`. Indistinguishable from Retrieve.
  Status Modify(storage::PageId id, Bytes data) override;
  /// Modify answered at the served point, like the TracedRetrieve above.
  Status Modify(storage::PageId id, Bytes data, const ServedSink& served);

  /// Deletes page `id`; its slot becomes a spare for Insert().
  /// Indistinguishable from Retrieve.
  Status Remove(storage::PageId id) override;
  /// Remove answered at the served point, like the TracedRetrieve above.
  Status Remove(storage::PageId id, const ServedSink& served);

  /// Inserts a new page, consuming a spare (insert_reserve or previously
  /// Removed) slot; returns its id. Indistinguishable from Retrieve.
  Result<storage::PageId> Insert(Bytes data) override;

  // Roll-forward. A round whose write-back fails has still committed:
  // its pages already moved between the cache and the block, so the
  // engine keeps the round's state and its write plan, and the call
  // returns the write's error. Every call that runs a round (Retrieve,
  // Modify, Remove, Insert, OfflineReshuffle, RotateKeys) first
  // re-sends that plan and returns its error while it still fails, so
  // at most one plan is ever pending. A Modify or Remove that fails
  // this way has taken effect; an Insert has not.

  /// §4.3's offline maintenance: "if there are numerous page deletions,
  /// the owner may choose to reshuffle (offline) the whole database in
  /// order to physically remove the deleted pages." Streams every page
  /// through the device, zeroes the payloads of dead/dummy pages (their
  /// stale contents are destroyed), draws a fresh permutation of the
  /// entire id space and rewrites disk and cache. O(n) — run it during
  /// a maintenance window, not per query.
  Status OfflineReshuffle();

  /// Offline key rotation: streams every page through the device,
  /// installs a fresh page key, and rewrites everything
  /// (re-permuted) under them. Combines with OfflineReshuffle's purge of
  /// dead contents. O(n); run during maintenance windows.
  Status RotateKeys();

  /// --- Online retuning (privacy/cost trade-off) --------------------------

  /// Requests an online block-size change to `new_k` — the paper's
  /// central dial (Eq. 5 trades c against the 2(k+1)-page round cost).
  /// The change is NOT applied here: it is deferred to the next
  /// scan-period boundary (block cursor back at slot 0), where swapping
  /// k keeps the round-robin schedule a pure function of public state —
  /// the adversary sees complete scans at the old k followed by
  /// complete scans at the new k, never a query-correlated seam.
  ///
  /// Constraints: `new_k` must divide disk_slots() (the disk is not
  /// repadded online) and satisfy disk_slots() >= 2 * new_k. Growing k
  /// reserves the extra (new_k - k) pages of secure block buffer up
  /// front (Eq. 7) and fails with ResourceExhausted if the device
  /// cannot fit it; shrinking releases the surplus when the transition
  /// applies. Requesting the current size cancels any pending request.
  /// Must be called on the engine's serving thread (like every other
  /// entry point); cross-thread readers use the published_* accessors.
  Status RequestBlockSize(uint64_t new_k);

  /// Pending requested k (0 when no transition is pending). Safe to
  /// read from any thread.
  uint64_t pending_block_size() const {
    return pending_block_size_.load(std::memory_order_relaxed);
  }
  /// Current k as last applied, readable from any thread (the plain
  /// block_size() accessor is serving-thread-only state).
  uint64_t published_block_size() const {
    return published_block_size_.load(std::memory_order_relaxed);
  }
  /// Number of applied block-size transitions over the engine lifetime.
  uint64_t block_size_transitions() const {
    return block_size_transitions_.load(std::memory_order_relaxed);
  }

  /// --- Introspection -----------------------------------------------------

  uint64_t block_size() const { return block_size_; }
  uint64_t scan_period() const { return disk_slots_ / block_size_; }
  uint64_t cache_pages() const { return options_.cache_pages; }
  uint64_t disk_slots() const { return disk_slots_; }
  /// Privacy parameter actually achieved (Eq. 5 with the engine's k).
  double achieved_privacy() const;
  const Stats& stats() const { return stats_; }

  /// --- Observability -----------------------------------------------------

  /// Registers the engine's aggregate instruments in `registry` (unowned;
  /// must outlive the engine) and starts per-query tracing: event
  /// counters, shuffle-epoch/block-cursor gauges, a whole-query latency
  /// histogram and one histogram per protocol phase (pageMap lookup,
  /// block read, decrypt, evict, re-encrypt, write-back). Everything
  /// exported is an aggregate over all requests — per-request page ids
  /// and request indices never reach the registry, so the stats surface
  /// adds nothing to what Eq. 5 already concedes to the adversary.
  ///
  /// All allocation happens here; the per-query cost is a handful of
  /// relaxed atomic ops and clock reads. Pass nullptr to disable, which
  /// restores the zero-overhead, zero-allocation path.
  void EnableMetrics(obs::MetricsRegistry* registry);

  /// Registers an observer called for every cache eviction to disk.
  void set_relocation_observer(RelocationObserver observer) {
    relocation_observer_ = std::move(observer);
  }

  /// Registers an observer called for every page entering the cache.
  void set_cache_entry_observer(CacheEntryObserver observer) {
    cache_entry_observer_ = std::move(observer);
  }

  /// Attaches a span collector (unowned; must outlive the engine, pass
  /// nullptr to detach). Rounds entered via TracedRetrieve with an
  /// active context then emit "engine_round" + per-phase spans labelled
  /// with `trace_shard` (-1 when the engine is not part of a fleet).
  void EnableTracing(obs::Tracer* tracer, int32_t trace_shard = -1);

  /// Attaches the sampling profiler (unowned; must outlive the engine,
  /// nullptr detaches). Head-sampled rounds then push an
  /// "engine_round" root frame with every protocol phase as a child,
  /// giving folded stacks for flame graphs. The sampling decision is
  /// counter-based and the Fig. 3 round has a constant span shape, so
  /// the profile is independent of which page was requested.
  void EnableProfiling(obs::Profiler* profiler) { profiler_ = profiler; }

  /// Attaches the online privacy monitor (unowned; must outlive the
  /// engine, nullptr detaches). The engine feeds it every cache entry
  /// and relocation — inside the trusted boundary, alongside the
  /// analysis observers — and the monitor publishes only window
  /// aggregates (the live c-estimate).
  void AttachPrivacyMonitor(obs::PrivacyMonitor* monitor) {
    privacy_monitor_ = monitor;
  }

  /// --- Persistence ---------------------------------------------------

  /// Serializes the engine's secure state (pageMap, cache contents,
  /// liveness, counters) so a deployment over a persistent disk can be
  /// resumed. The blob contains plaintext cache pages and the location
  /// map — it must stay inside the trusted boundary or be wrapped with
  /// crypto::BlobCipher before leaving it. The coprocessor keys are NOT
  /// included; recreate the device with the same seed (or key escrow).
  /// FailedPrecondition while a write-back is pending: the disk is a
  /// round behind the state.
  Result<Bytes> SerializeState() const;

  /// Restores a serialized state onto a freshly Create()d engine whose
  /// options and disk geometry match the snapshot. Replaces
  /// Initialize().
  Status RestoreState(ByteSpan state);

  /// Ground-truth location of a page (test/analysis hook; a physical
  /// device would never expose this).
  Result<storage::Location> DebugLocation(storage::PageId id) const;
  /// Whether the page currently sits in the secure cache (test hook).
  bool DebugIsCached(storage::PageId id) const;

  ~CApproxPir() override;

  CApproxPir(const CApproxPir&) = delete;
  CApproxPir& operator=(const CApproxPir&) = delete;

 private:
  CApproxPir(hardware::SecureCoprocessor* cpu, const Options& options,
             storage::AccessTrace* trace, uint64_t block_size,
             uint64_t disk_slots, uint64_t reserved_bytes);

  /// What a round does besides Fig. 3's read and relocation (§4.3).
  struct RoundOp {
    /// Retrieve: the answer is the requested page's payload.
    bool retrieve = false;
    /// Modify: the requested page's new payload.
    const Bytes* replace_data = nullptr;
    /// Remove of a cached page: that page is the one evicted.
    bool force_evict = false;
    /// Insert: the new content of the spare driving the round.
    const Bytes* insert_data = nullptr;
  };
  /// A committed round: its answer (handed to the sink instead when
  /// there is one) and its write-back's status, pending when not ok.
  struct RoundOutcome {
    Bytes answer;
    Status write_back;
  };

  /// One round of the Fig. 3 protocol. `request` is the id driving the
  /// round (the real target, a cached page for Remove, or the spare for
  /// Insert); it crosses into the round wrapped in Secret<> — the round
  /// is the trust boundary within which secret-dependent control flow
  /// is permitted (and audited via shpir-lint-allow). Re-sends a pending
  /// write first. Errors before the round commits are returned; a failed
  /// write-back commits and is reported in the outcome.
  Result<RoundOutcome> RunRound(common::Secret<storage::PageId> request,
                                const RoundOp& op, const ServedSink& served);

  /// Shared body of Retrieve() and both TracedRetrieve()s.
  Result<Bytes> RetrieveRound(storage::PageId id, const ServedSink& served);

  /// Re-sends the pending write plan, if any; its error while it fails.
  Status RollForward();

  /// Writes a round's k+1 sealed slots (the run, then the extra slot)
  /// back by `plan` in one disk call. The device takes the run and the
  /// extra slot apart, so the extra slot steps out of `slots` and back
  /// in, and no buffer is freed.
  Status WriteBack(const storage::IoPlan& plan, std::vector<Bytes>& slots);

  /// True when page `id` is on disk at `loc` by the pageMap; false for
  /// ids outside the id space.
  bool MapsTo(storage::PageId id, storage::Location loc) const {
    return id < id_space_ && !page_map_.IsCached(id) &&
           // shpir-lint-allow-next-line(secret-compare): in-enclave integrity check of an opened page against the pageMap; a mismatch fails the whole round
           page_map_.DiskLocation(id) == loc;
  }

  /// Shared body of OfflineReshuffle()/RotateKeys().
  Status ReshuffleInternal(bool rotate_keys);

  /// Applies a pending block-size request. Called from RunRound only
  /// when the block cursor sits at a scan-period boundary.
  void ApplyPendingBlockSize();

  /// Block size the NEXT round will scan with: the pending size when
  /// the cursor is at a boundary (the transition applies before the
  /// read), the current size otherwise.
  uint64_t NextRoundBlockSize() const {
    const uint64_t pending =
        pending_block_size_.load(std::memory_order_relaxed);
    return (next_block_ == 0 && pending != 0) ? pending : block_size_;
  }

  /// Draws a uniformly random id that is neither cached nor located in
  /// the current block [block_start, block_start + k).
  storage::PageId RandomUncachedOutsideBlock(storage::Location block_start);

  bool InBlock(storage::Location loc, storage::Location block_start) const {
    return loc >= block_start && loc < block_start + block_size_;
  }

  bool IsLive(storage::PageId id) const {
    // shpir-lint-allow-next-line(secret-index): in-device liveness bitmap; only the presence or absence of the ensuing round is ever visible outside
    return id < live_.size() && live_[id];
  }

  hardware::SecureCoprocessor* cpu_;
  Options options_;
  storage::AccessTrace* trace_;

  uint64_t block_size_;   // k
  uint64_t disk_slots_;   // Padded disk size.
  uint64_t id_space_;     // disk_slots_ + m.
  uint64_t reserved_bytes_;  // Secure memory charged (Create + retunes).
  /// Largest k the current secure-memory reservation covers: max of the
  /// applied and any pending block size while a transition is in flight.
  uint64_t reserved_block_size_;

  /// Online retune state. Written on the serving thread only; the
  /// atomics exist so controllers/status paths on other threads can
  /// read k without racing the round (TSan-clean mirrors).
  std::atomic<uint64_t> pending_block_size_{0};
  std::atomic<uint64_t> published_block_size_;
  std::atomic<uint64_t> block_size_transitions_{0};

  /// The pageMap and pageCache are the secret state of the protocol:
  /// which ids are cached (and where anything lives) is exactly what
  /// Eq. 5 bounds the adversary's knowledge of.
  SHPIR_SECRET PageMap page_map_;
  SHPIR_SECRET std::vector<storage::Page> page_cache_;  // m pages.
  std::vector<bool> live_;                 // Client-visible ids.
  std::vector<storage::PageId> free_ids_;  // Spares available to Insert.
  uint64_t next_block_ = 0;                // Round-robin block cursor.
  bool initialized_ = false;

  /// The round's buffers, kept across rounds so that a steady round
  /// allocates nothing but its answer: the k+1 sealed slots it reads and
  /// re-seals (the run, then the extra slot), and the k+1 pages it opens
  /// them into. The opened pages are Eq. 7's (k+1)·B serverBlock, which
  /// Create reserves; both resize when a retune lands.
  std::vector<Bytes> sealed_;
  SHPIR_SECRET std::vector<storage::Page> block_;

  /// The write plan of a committed round whose write-back failed: its
  /// k+1 sealed slots, the extra slot last.
  struct PendingWrite {
    storage::IoPlan plan;
    std::vector<Bytes> slots;
  };
  std::optional<PendingWrite> pending_write_;

  Stats stats_;
  RelocationObserver relocation_observer_;
  CacheEntryObserver cache_entry_observer_;
  obs::PrivacyMonitor* privacy_monitor_ = nullptr;

  /// Distributed tracing: TracedRetrieve parks the caller's context
  /// here for the duration of the round (the engine is single-threaded
  /// per instance; see ThreadSafeEngine / the shard dispatcher).
  obs::Tracer* tracer_ = nullptr;
  int32_t trace_shard_ = -1;
  obs::TraceContext pending_trace_;

  /// Continuous profiling; null until EnableProfiling().
  obs::Profiler* profiler_ = nullptr;

  /// Aggregate instruments; all null until EnableMetrics().
  struct Instruments {
    obs::Counter* queries = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* block_hits = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* inserts = nullptr;
    obs::Counter* removes = nullptr;
    obs::Counter* modifies = nullptr;
    obs::Counter* reshuffles = nullptr;
    obs::Counter* key_rotations = nullptr;
    obs::Gauge* block_cursor = nullptr;
    obs::Gauge* achieved_privacy_c = nullptr;
    obs::Gauge* block_size_k = nullptr;
    obs::Gauge* cache_pages_m = nullptr;
    obs::Histogram* query_latency_ns = nullptr;
    obs::PhaseHistograms phases{};
  };
  Instruments instruments_;
  bool metered() const { return instruments_.queries != nullptr; }
};

}  // namespace shpir::core

#endif  // SHPIR_CORE_CAPPROX_PIR_H_
