#include "core/capprox_pir.h"

#include <algorithm>
#include <optional>

#include "common/serde.h"
#include "core/security_parameter.h"
#include "crypto/permutation.h"

namespace shpir::core {

namespace {

using storage::Location;
using storage::Page;
using storage::PageId;

// Round `total` up to a multiple of `k`, with at least two blocks (the
// protocol needs a location outside the current block to exist).
uint64_t PadToBlocks(uint64_t total, uint64_t k) {
  uint64_t slots = (total + k - 1) / k * k;
  if (slots < 2 * k) {
    slots = 2 * k;
  }
  return slots;
}

}  // namespace

namespace {

struct Geometry {
  uint64_t block_size;  // k
  uint64_t disk_slots;  // Multiple of k, >= 2k.
};

// Validates options and resolves the block size k and padded disk size.
Result<Geometry> ResolveGeometry(const CApproxPir::Options& options) {
  if (options.num_pages < 1) {
    return InvalidArgumentError("num_pages must be >= 1");
  }
  if (options.page_size < 1) {
    return InvalidArgumentError("page_size must be >= 1");
  }
  if (options.cache_pages < 2) {
    return InvalidArgumentError("cache_pages must be >= 2");
  }
  const uint64_t target = options.num_pages + options.insert_reserve;
  uint64_t k = options.block_size;
  if (k == 0) {
    if (options.privacy_c <= 1.0) {
      return InvalidArgumentError(
          "privacy_c must be > 1 (use TrivialPir for c == 1)");
    }
    // Fixed point: k depends on the padded size, which depends on k.
    SHPIR_ASSIGN_OR_RETURN(
        k, SecurityParameter::BlockSize(target, options.cache_pages,
                                        options.privacy_c));
    for (int iter = 0; iter < 3; ++iter) {
      const uint64_t padded = PadToBlocks(target, k);
      SHPIR_ASSIGN_OR_RETURN(
          const uint64_t next,
          SecurityParameter::BlockSize(padded, options.cache_pages,
                                       options.privacy_c));
      if (next == k) {
        break;
      }
      k = next;
    }
  }
  const uint64_t slots = PadToBlocks(target, k);
  if (k >= slots) {
    return InvalidArgumentError(
        "block size covers the whole disk; use TrivialPir instead");
  }
  return Geometry{k, slots};
}

}  // namespace

Result<uint64_t> CApproxPir::DiskSlots(const Options& options) {
  SHPIR_ASSIGN_OR_RETURN(const Geometry geometry, ResolveGeometry(options));
  return geometry.disk_slots;
}

Result<std::unique_ptr<CApproxPir>> CApproxPir::Create(
    hardware::SecureCoprocessor* cpu, const Options& options,
    storage::AccessTrace* trace) {
  if (cpu == nullptr) {
    return InvalidArgumentError("coprocessor is required");
  }
  SHPIR_ASSIGN_OR_RETURN(const Geometry geometry, ResolveGeometry(options));
  const uint64_t disk_slots = geometry.disk_slots;
  const uint64_t k = geometry.block_size;
  if (cpu->page_size() != options.page_size) {
    return InvalidArgumentError("coprocessor page size mismatch");
  }
  if (cpu->disk()->num_slots() != disk_slots) {
    return InvalidArgumentError(
        "disk must have exactly " + std::to_string(disk_slots) + " slots");
  }

  const uint64_t id_space = disk_slots + options.cache_pages;
  uint64_t reserved = 0;
  if (options.enforce_secure_memory) {
    // Eq. 7: pageMap + pageCache + serverBlock.
    reserved = PageMap::StorageBytes(id_space) +
               (options.cache_pages + k + 1) * options.page_size;
    SHPIR_RETURN_IF_ERROR(
        cpu->ReserveSecureMemory(reserved, "c-approx PIR structures"));
  }
  return std::unique_ptr<CApproxPir>(
      new CApproxPir(cpu, options, trace, k, disk_slots, reserved));
}

CApproxPir::CApproxPir(hardware::SecureCoprocessor* cpu,
                       const Options& options, storage::AccessTrace* trace,
                       uint64_t block_size, uint64_t disk_slots,
                       uint64_t reserved_bytes)
    : cpu_(cpu),
      options_(options),
      trace_(trace),
      block_size_(block_size),
      disk_slots_(disk_slots),
      id_space_(disk_slots + options.cache_pages),
      reserved_bytes_(reserved_bytes),
      reserved_block_size_(block_size),
      published_block_size_(block_size),
      page_map_(id_space_),
      live_(id_space_, false),
      sealed_(block_size + 1),
      block_(block_size + 1) {}

CApproxPir::~CApproxPir() {
  if (reserved_bytes_ > 0) {
    cpu_->ReleaseSecureMemory(reserved_bytes_);
  }
}

void CApproxPir::EnableMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  instruments_.queries =
      registry->FindOrCreateCounter("shpir_engine_queries_total");
  instruments_.cache_hits =
      registry->FindOrCreateCounter("shpir_engine_cache_hits_total");
  instruments_.block_hits =
      registry->FindOrCreateCounter("shpir_engine_block_hits_total");
  instruments_.evictions =
      registry->FindOrCreateCounter("shpir_engine_evictions_total");
  instruments_.inserts =
      registry->FindOrCreateCounter("shpir_engine_inserts_total");
  instruments_.removes =
      registry->FindOrCreateCounter("shpir_engine_removes_total");
  instruments_.modifies =
      registry->FindOrCreateCounter("shpir_engine_modifies_total");
  instruments_.reshuffles =
      registry->FindOrCreateCounter("shpir_engine_reshuffles_total");
  instruments_.key_rotations =
      registry->FindOrCreateCounter("shpir_engine_key_rotations_total");
  instruments_.block_cursor =
      registry->FindOrCreateGauge("shpir_engine_block_cursor");
  instruments_.achieved_privacy_c =
      registry->FindOrCreateGauge("shpir_engine_achieved_privacy_c");
  instruments_.block_size_k =
      registry->FindOrCreateGauge("shpir_engine_block_size_k");
  instruments_.cache_pages_m =
      registry->FindOrCreateGauge("shpir_engine_cache_pages_m");
  instruments_.query_latency_ns =
      registry->FindOrCreateHistogram("shpir_engine_query_latency_ns");
  for (int i = 0; i < obs::kNumPhases; ++i) {
    instruments_.phases[static_cast<size_t>(i)] =
        registry->FindOrCreateHistogram(
            std::string("shpir_engine_phase_") +
            obs::PhaseName(static_cast<obs::Phase>(i)) + "_ns");
  }
  instruments_.block_cursor->Set(static_cast<double>(next_block_));
  instruments_.achieved_privacy_c->Set(achieved_privacy());
  instruments_.block_size_k->Set(static_cast<double>(block_size_));
  instruments_.cache_pages_m->Set(static_cast<double>(options_.cache_pages));
}

Status CApproxPir::RequestBlockSize(uint64_t new_k) {
  if (!initialized_) {
    return FailedPreconditionError("engine not initialized");
  }
  if (new_k < 1) {
    return InvalidArgumentError("block size must be >= 1");
  }
  if (disk_slots_ % new_k != 0) {
    return InvalidArgumentError(
        "block size " + std::to_string(new_k) + " does not divide the " +
        std::to_string(disk_slots_) +
        "-slot disk; online retuning cannot repad the disk");
  }
  if (disk_slots_ < 2 * new_k) {
    return InvalidArgumentError(
        "block size covers more than half the disk; the protocol needs "
        "a location outside the current block");
  }
  // The reservation must cover the larger of the applied and requested
  // k until the transition lands (the old block buffer is still in use
  // up to the boundary). Grow up front so the apply step cannot fail;
  // shrink back down as far as the new target allows.
  const uint64_t target_reserved = std::max(block_size_, new_k);
  if (options_.enforce_secure_memory) {
    if (target_reserved > reserved_block_size_) {
      const uint64_t delta =
          (target_reserved - reserved_block_size_) * options_.page_size;
      SHPIR_RETURN_IF_ERROR(
          cpu_->ReserveSecureMemory(delta, "c-approx retune block buffer"));
      reserved_bytes_ += delta;
      reserved_block_size_ = target_reserved;
    } else if (target_reserved < reserved_block_size_) {
      // A previously pending larger request is being replaced: give the
      // surplus back immediately.
      const uint64_t delta =
          (reserved_block_size_ - target_reserved) * options_.page_size;
      cpu_->ReleaseSecureMemory(delta);
      reserved_bytes_ -= delta;
      reserved_block_size_ = target_reserved;
    }
  }
  // Requesting the current size cancels any pending transition.
  pending_block_size_.store(new_k == block_size_ ? 0 : new_k,
                            std::memory_order_relaxed);
  return OkStatus();
}

void CApproxPir::ApplyPendingBlockSize() {
  const uint64_t new_k =
      pending_block_size_.load(std::memory_order_relaxed);
  pending_block_size_.store(0, std::memory_order_relaxed);
  block_size_ = new_k;
  published_block_size_.store(new_k, std::memory_order_relaxed);
  sealed_.resize(new_k + 1);
  block_.resize(new_k + 1);
  block_size_transitions_.fetch_add(1, std::memory_order_relaxed);
  if (options_.enforce_secure_memory && reserved_block_size_ > new_k) {
    const uint64_t delta =
        (reserved_block_size_ - new_k) * options_.page_size;
    cpu_->ReleaseSecureMemory(delta);
    reserved_bytes_ -= delta;
    reserved_block_size_ = new_k;
  }
  if (metered()) {
    instruments_.block_size_k->Set(static_cast<double>(block_size_));
    instruments_.achieved_privacy_c->Set(achieved_privacy());
  }
  // The scan period T = disk_slots / k changed: the privacy monitor's
  // residency bins are folded mod T, so it must rebase its window.
  if (privacy_monitor_ != nullptr) {
    privacy_monitor_->OnScanPeriodChange(scan_period());
  }
}

double CApproxPir::achieved_privacy() const {
  Result<double> c = SecurityParameter::PrivacyOf(
      disk_slots_, options_.cache_pages, block_size_);
  return c.ok() ? *c : 0.0;
}

Status CApproxPir::Initialize(const std::vector<Page>& pages) {
  if (initialized_) {
    return FailedPreconditionError("already initialized");
  }
  if (pages.size() > options_.num_pages) {
    return InvalidArgumentError("more pages than num_pages");
  }
  for (const Page& page : pages) {
    if (page.data.size() > options_.page_size) {
      return InvalidArgumentError("page payload exceeds page size");
    }
  }

  // Draw the initial oblivious permutation inside the device: position
  // perm[id] of page id; positions >= disk_slots_ denote cache slots.
  const std::vector<uint64_t> perm =
      crypto::RandomPermutation(id_space_, cpu_->rng());
  const std::vector<uint64_t> inv = crypto::InvertPermutation(perm);

  // Page `id`'s initial content, zero-padded to B as every page read
  // back from disk is, into `page`'s buffer.
  auto materialize = [&](PageId id, Page& page) {
    page.id = id;
    if (id < pages.size()) {
      page.data = pages[id].data;
      page.data.resize(options_.page_size, 0);
    } else {
      page.data.assign(options_.page_size, 0);
    }
  };

  // Bulk-seal to disk in slot order (sequential write pattern), in
  // chunks to bound transient memory. Each chunk's pages are
  // materialized and sealed a batch at a time into the chunk's slots,
  // so only one batch of plaintext is in memory, and every chunk and
  // batch reuses the last one's buffers.
  constexpr uint64_t kChunk = 1024;
  constexpr uint64_t kSealBatch = 32;
  std::vector<Page> batch(kSealBatch);
  std::vector<Bytes> sealed;
  for (uint64_t start = 0; start < disk_slots_; start += kChunk) {
    const uint64_t count = std::min(kChunk, disk_slots_ - start);
    sealed.resize(count);
    for (uint64_t done = 0; done < count; done += kSealBatch) {
      const uint64_t n = std::min(kSealBatch, count - done);
      for (uint64_t i = 0; i < n; ++i) {
        const PageId id = inv[start + done + i];
        materialize(id, batch[i]);
        page_map_.SetDiskLocation(id, start + done + i);
      }
      SHPIR_RETURN_IF_ERROR(
          cpu_->SealPages(std::span<const Page>(batch).first(n),
                          std::span<Bytes>(sealed).subspan(done, n)));
    }
    SHPIR_RETURN_IF_ERROR(cpu_->WriteRun(start, sealed));
  }

  // Cache holds the remaining m pages.
  page_cache_.resize(options_.cache_pages);
  for (uint64_t j = 0; j < options_.cache_pages; ++j) {
    const PageId id = inv[disk_slots_ + j];
    materialize(id, page_cache_[j]);
    page_map_.SetCacheIndex(id, j);
  }

  for (PageId id = 0; id < options_.num_pages; ++id) {
    live_[id] = true;
  }
  free_ids_.clear();
  for (PageId id = options_.num_pages; id < id_space_; ++id) {
    free_ids_.push_back(id);
  }
  initialized_ = true;
  return OkStatus();
}

storage::PageId CApproxPir::RandomUncachedOutsideBlock(
    Location block_start) {
  while (true) {
    const PageId p = cpu_->rng().UniformInt(id_space_);
    // Rejection sampling against the secret cache state runs inside the
    // device; only the accepted (uniform, non-revealing) draw is ever
    // turned into a disk access.
    // shpir-lint-allow-next-line(secret-loop-bound): in-enclave rejection sampling; each retry stays inside the device, no disk access is issued until the uniform draw is accepted
    if (page_map_.IsCached(p)) {
      continue;
    }
    // shpir-lint-allow-next-line(secret-loop-bound): in-enclave rejection sampling; the accepted draw is uniform over eligible pages by construction
    if (InBlock(page_map_.DiskLocation(p), block_start)) {
      continue;
    }
    return p;
  }
}

Status CApproxPir::RollForward() {
  if (!pending_write_.has_value()) {
    return OkStatus();
  }
  SHPIR_RETURN_IF_ERROR(
      WriteBack(pending_write_->plan, pending_write_->slots));
  pending_write_.reset();
  return OkStatus();
}

Status CApproxPir::WriteBack(const storage::IoPlan& plan,
                             std::vector<Bytes>& slots) {
  Bytes extra = std::move(slots.back());
  slots.pop_back();
  const Status status = cpu_->WritePlan(plan, slots, extra);
  slots.push_back(std::move(extra));
  return status;
}

Result<CApproxPir::RoundOutcome> CApproxPir::RunRound(
    common::Secret<PageId> request_secret, const RoundOp& op,
    const ServedSink& served) {
  // The query index is unwrapped only here: everything below runs
  // inside the device, and every secret-dependent branch the Fig. 3
  // protocol takes carries an audited shpir-lint-allow.
  const PageId request = request_secret.ExposeSecret();
  if (!initialized_) {
    return FailedPreconditionError("engine not initialized");
  }
  SHPIR_RETURN_IF_ERROR(RollForward());
  // A round whose k+1 pages the page key could not seal is refused
  // before it moves one.
  SHPIR_RETURN_IF_ERROR(cpu_->CheckSealBudget(NextRoundBlockSize() + 1));
  if (trace_ != nullptr) {
    trace_->BeginRequest();
  }
  const uint64_t request_index = stats_.queries++;
  // Destructors run last: the latency timer covers the whole round and
  // the trace flushes one sample per phase. Both are no-ops (no clock
  // reads, no allocations) when metrics are disabled.
  obs::ScopedLatencyTimer round_timer(instruments_.query_latency_ns);
  obs::QueryTrace qtrace(metered() ? &instruments_.phases : nullptr);
  // Distributed tracing: under a sampled context the round gets an
  // "engine_round" span and each protocol phase becomes a child span.
  // The context holds only public trace ids — never the request.
  std::optional<obs::TraceSpan> round_span;
  if (tracer_ != nullptr && pending_trace_.active()) {
    round_span.emplace(tracer_, pending_trace_, "engine_round",
                       trace_shard_);
    qtrace.SetSpanSink(tracer_, round_span->context(), trace_shard_);
  }
  // Continuous profiling: head-sampled rounds open an "engine_round"
  // root frame and every phase Span below pushes a child frame. The
  // sampling counter ticks for every round (target-independent) and
  // unsampled rounds never touch the profiler again.
  obs::ProfileScope profile_scope(
      profiler_ != nullptr && profiler_->SampleQuery() ? profiler_
                                                       : nullptr,
      "engine_round");
  if (profile_scope.active()) {
    qtrace.SetProfileSink(profiler_);
  }
  if (metered()) {
    instruments_.queries->Increment();
  }

  // A pending block-size change lands exactly at the scan-period
  // boundary: the previous scan completed at the old k, this scan
  // starts at slot 0 with the new k, and the schedule stays a pure
  // function of public state (cursor and the two public block sizes).
  if (next_block_ == 0 &&
      pending_block_size_.load(std::memory_order_relaxed) != 0) {
    ApplyPendingBlockSize();
  }

  // Step 1: plan the round's public I/O. The block is the next k slots
  // of the round-robin scan; the (k+1)-th page depends only on the
  // pageMap, the cursor and the device RNG, never on the block's
  // contents, so the whole plan is fixed before any page is read.
  const Location block_start = next_block_ * block_size_;
  next_block_ = (next_block_ + 1) % scan_period();
  if (metered()) {
    instruments_.block_cursor->Set(static_cast<double>(next_block_));
  }
  // Pick the (k+1)-th page and locate the requested page. q indexes the
  // requested page within `block` when it is not cached.
  PageId extra;
  uint64_t q = block_size_;
  SHPIR_SECRET bool request_cached = false;
  {
    obs::Span span(qtrace, obs::Phase::kPageMapLookup);
    if (op.insert_data != nullptr) {
      // The extra page is the chosen spare; its content is replaced by
      // the new page below.
      extra = request;
      // The Fig. 3 case split below is the protocol's one deliberate
      // secret-dependent branch: which case ran decides the extra page,
      // and Eq. 5 is exactly the bound on what the resulting disk
      // access pattern reveals.
      // shpir-lint-allow-next-line(secret-branch): Fig. 3 cache-hit case split
    } else if (page_map_.IsCached(request)) {
      request_cached = true;
      stats_.cache_hits++;
      if (metered()) {
        instruments_.cache_hits->Increment();
      }
      extra = RandomUncachedOutsideBlock(block_start);
      // shpir-lint-allow-next-line(secret-branch): Fig. 3 block-hit case split
    } else if (InBlock(page_map_.DiskLocation(request), block_start)) {
      stats_.block_hits++;
      if (metered()) {
        instruments_.block_hits->Increment();
      }
      q = page_map_.DiskLocation(request) - block_start;
      extra = RandomUncachedOutsideBlock(block_start);
    } else {
      extra = request;
    }
  }
  const storage::IoPlan plan{block_start, block_size_,
                             page_map_.DiskLocation(extra)};

  // Step 2: read the plan (the block, then the extra page) in one disk
  // call into the kept slots, open all k+1 pages into the kept block,
  // each page's MAC checked before it is decrypted, and check that each
  // is the page the pageMap places at its slot. The MAC binds a page's
  // id to its bytes, so a page moved to another slot opens cleanly;
  // only the position check catches it. The decrypted block is a
  // secret container, so secret-indexed accesses into it stay inside
  // the boundary.
  {
    obs::Span span(qtrace, obs::Phase::kBlockRead);
    SHPIR_RETURN_IF_ERROR(cpu_->ReadPlan(plan, sealed_));
  }
  {
    obs::Span span(qtrace, obs::Phase::kDecrypt);
    SHPIR_RETURN_IF_ERROR(cpu_->OpenPages(sealed_, block_));
    for (uint64_t i = 0; i <= block_size_; ++i) {
      const Location loc = i < block_size_ ? block_start + i : plan.extra;
      // shpir-lint-allow-next-line(secret-loop-bound): in-enclave integrity check; a moved page aborts the round before any write, at a slot the adversary chose to tamper with
      if (!MapsTo(block_[i].id, loc)) {
        return DataLossError("disk slot " + std::to_string(loc) +
                             " holds a page the pageMap places elsewhere");
      }
    }
  }

  // Step 3: take the answer and apply Modify's bytes wherever the page
  // lives (the checks above put the requested page at block_[q] when it
  // is not cached), then serve it. Step 4 (Fig. 3 lines 17-20):
  // uniformize the target slot, then swap with a random cache entry.
  RoundOutcome outcome;
  uint64_t r;
  uint64_t s;
  {
    obs::Span span(qtrace, obs::Phase::kCacheEvict);
    if (op.insert_data != nullptr) {
      // Overwrite the spare's content with the new page (same id).
      block_[block_size_].id = request;
      block_[block_size_].data = *op.insert_data;
    } else {
      Page& target =
          // shpir-lint-allow-next-line(secret-branch): in-enclave payload extraction
          request_cached ? page_cache_[page_map_.CacheIndex(request)]
                         : block_[q];
      if (op.retrieve) {
        outcome.answer = target.data;
      }
      if (op.replace_data != nullptr) {
        target.data = *op.replace_data;
      }
    }
    // The served point: every page is read, opened and checked, and the
    // answer is final. What follows only hides it, so the caller may
    // have it now.
    if (served) {
      served(std::move(outcome.answer));
    }
    r = options_.ablation_skip_uniform_swap
            ? 0
            : cpu_->rng().UniformInt(block_size_);
    std::swap(block_[r], block_[q]);
    if (op.force_evict) {
      s = page_map_.CacheIndex(request);
    } else if (options_.ablation_round_robin_eviction) {
      s = request_index % options_.cache_pages;
    } else {
      s = cpu_->rng().UniformInt(options_.cache_pages);
    }
    std::swap(page_cache_[s], block_[r]);
    if (metered()) {
      instruments_.evictions->Increment();
    }
  }

  // Step 5: re-encrypt everything with fresh nonces into the kept
  // slots and write back.
  {
    obs::Span span(qtrace, obs::Phase::kReencrypt);
    SHPIR_RETURN_IF_ERROR(cpu_->SealPages(block_, sealed_));
  }
  {
    obs::Span span(qtrace, obs::Phase::kWriteBack);
    outcome.write_back = WriteBack(plan, sealed_);
    if (!outcome.write_back.ok()) {
      // The swap already moved pages between the cache and the block:
      // commit as if the write had landed and keep a copy to re-send.
      pending_write_ = PendingWrite{plan, sealed_};
    }
  }

  // Step 6: update the look-up table for the three moved pages.
  obs::Span span(qtrace, obs::Phase::kPageMapLookup);
  page_map_.SetCacheIndex(page_cache_[s].id, s);
  if (cache_entry_observer_) {
    cache_entry_observer_(page_cache_[s].id, request_index);
  }
  if (privacy_monitor_ != nullptr) {
    privacy_monitor_->OnCacheEntry(page_cache_[s].id, request_index);
  }
  page_map_.SetDiskLocation(block_[r].id, block_start + r);
  if (relocation_observer_) {
    relocation_observer_(block_[r].id, block_start + r, request_index);
  }
  if (privacy_monitor_ != nullptr) {
    privacy_monitor_->OnRelocation(block_[r].id, request_index);
  }
  // shpir-lint-allow-next-line(secret-branch, secret-compare): in-enclave pageMap bookkeeping for the swapped slots
  if (q != r) {
    // shpir-lint-allow-next-line(secret-branch): in-enclave location select
    const Location loc_q = q < block_size_ ? block_start + q : plan.extra;
    page_map_.SetDiskLocation(block_[q].id, loc_q);
  }
  return outcome;
}

Result<Bytes> CApproxPir::RetrieveRound(PageId id, const ServedSink& served) {
  if (!initialized_) {
    return FailedPreconditionError("engine not initialized");
  }
  if (!IsLive(id)) {
    return NotFoundError("no such page: " + std::to_string(id));
  }
  SHPIR_ASSIGN_OR_RETURN(
      RoundOutcome outcome,
      RunRound(common::Secret<PageId>(id), {.retrieve = true}, served));
  SHPIR_RETURN_IF_ERROR(outcome.write_back);
  return std::move(outcome.answer);
}

Result<Bytes> CApproxPir::Retrieve(PageId id) {
  return RetrieveRound(id, nullptr);
}

Result<Bytes> CApproxPir::TracedRetrieve(PageId id,
                                         const obs::TraceContext& ctx) {
  // Park the context for the round; the engine is single-threaded per
  // instance so a plain member hand-off is safe. Cleared on every exit
  // path so an untraced follow-up query cannot inherit it.
  pending_trace_ = ctx;
  Result<Bytes> result = RetrieveRound(id, nullptr);
  pending_trace_ = obs::TraceContext{};
  return result;
}

Status CApproxPir::TracedRetrieve(PageId id, const obs::TraceContext& ctx,
                                  const ServedSink& served) {
  pending_trace_ = ctx;
  const Status status = RetrieveRound(id, served).status();
  pending_trace_ = obs::TraceContext{};
  return status;
}

void CApproxPir::EnableTracing(obs::Tracer* tracer, int32_t trace_shard) {
  tracer_ = tracer;
  trace_shard_ = trace_shard;
}

Status CApproxPir::Modify(PageId id, Bytes data) {
  return Modify(id, std::move(data), nullptr);
}

Status CApproxPir::Modify(PageId id, Bytes data, const ServedSink& served) {
  if (!initialized_) {
    return FailedPreconditionError("engine not initialized");
  }
  if (!IsLive(id)) {
    return NotFoundError("no such page: " + std::to_string(id));
  }
  if (data.size() > options_.page_size) {
    return InvalidArgumentError("page payload exceeds page size");
  }
  data.resize(options_.page_size, 0);
  stats_.modifies++;
  if (metered()) {
    instruments_.modifies->Increment();
  }
  SHPIR_ASSIGN_OR_RETURN(
      const RoundOutcome outcome,
      RunRound(common::Secret<PageId>(id), {.replace_data = &data}, served));
  // shpir-lint-allow-next-line(secret-return): the write-back status is public; the untrusted disk answered it
  return outcome.write_back;
}

Status CApproxPir::Remove(PageId id) { return Remove(id, nullptr); }

Status CApproxPir::Remove(PageId id, const ServedSink& served) {
  if (!initialized_) {
    return FailedPreconditionError("engine not initialized");
  }
  if (!IsLive(id)) {
    return NotFoundError("no such page: " + std::to_string(id));
  }
  stats_.removes++;
  if (metered()) {
    instruments_.removes->Increment();
  }
  // §4.3: deletions run as cache hits (random (k+1)-th page); a cached
  // victim is forced out of the cache so the dead page never lingers in
  // secure memory.
  const bool cached = page_map_.IsCached(id);
  PageId round_target = id;
  // shpir-lint-allow-next-line(secret-branch): §4.3 delete case split runs in-enclave; both arms produce identical access patterns
  if (!cached) {
    // The page stays wherever it is on disk; run an ordinary-looking
    // round driven by a random page so the adversary sees nothing
    // special. A cache-hit-shaped round needs a cached page as target:
    // pick a uniformly random cache slot's resident.
    const uint64_t slot = cpu_->rng().UniformInt(options_.cache_pages);
    round_target = page_cache_[slot].id;
  }
  SHPIR_ASSIGN_OR_RETURN(
      const RoundOutcome outcome,
      RunRound(common::Secret<PageId>(round_target),
               {.force_evict = cached}, served));
  // The round committed, so the removal stands even while its write is
  // pending.
  live_[id] = false;
  free_ids_.push_back(id);
  // shpir-lint-allow-next-line(secret-return): the write-back status is public; the untrusted disk answered it
  return outcome.write_back;
}

Result<storage::PageId> CApproxPir::Insert(Bytes data) {
  if (!initialized_) {
    return FailedPreconditionError("engine not initialized");
  }
  if (data.size() > options_.page_size) {
    return InvalidArgumentError("page payload exceeds page size");
  }
  data.resize(options_.page_size, 0);
  if (free_ids_.empty()) {
    return ResourceExhaustedError("no spare pages left for insertion");
  }
  // Pick a spare that is currently on disk outside the block the next
  // round will scan (the round reads the block before the spare). A
  // pending block-size change applies at the boundary before that read,
  // so the prediction must use the next round's k, not the current one.
  const uint64_t next_k = NextRoundBlockSize();
  const Location next_block_start = next_block_ * block_size_;
  PageId spare = storage::kDummyPageId;
  size_t spare_pos = 0;
  const size_t start = cpu_->rng().UniformInt(free_ids_.size());
  for (size_t step = 0; step < free_ids_.size(); ++step) {
    const size_t pos = (start + step) % free_ids_.size();
    const PageId candidate = free_ids_[pos];
    // Spare selection consults the secret pageMap inside the device;
    // the adversary sees only the ordinary round the chosen spare
    // drives.
    // shpir-lint-allow-next-line(secret-loop-bound): in-enclave spare selection; the adversary sees only the ordinary round the chosen spare drives
    if (page_map_.IsCached(candidate)) {
      continue;
    }
    const Location candidate_loc = page_map_.DiskLocation(candidate);
    // shpir-lint-allow-next-line(secret-loop-bound): in-enclave spare selection retry inside the device
    if (candidate_loc >= next_block_start &&
        candidate_loc < next_block_start + next_k) {
      continue;
    }
    spare = candidate;
    spare_pos = pos;
    break;
  }
  if (spare == storage::kDummyPageId) {
    return FailedPreconditionError(
        "all spare pages are cached or in the next block; run a query "
        "and retry");
  }
  stats_.inserts++;
  if (metered()) {
    instruments_.inserts->Increment();
  }
  SHPIR_ASSIGN_OR_RETURN(
      const RoundOutcome outcome,
      RunRound(common::Secret<PageId>(spare), {.insert_data = &data},
               nullptr));
  // The caller learns the id only on success; a spare whose write is
  // pending stays free.
  SHPIR_RETURN_IF_ERROR(outcome.write_back);
  free_ids_.erase(free_ids_.begin() + static_cast<ptrdiff_t>(spare_pos));
  live_[spare] = true;
  return spare;
}

Status CApproxPir::OfflineReshuffle() {
  return ReshuffleInternal(/*rotate_keys=*/false);
}

Status CApproxPir::RotateKeys() {
  return ReshuffleInternal(/*rotate_keys=*/true);
}

Status CApproxPir::ReshuffleInternal(bool rotate_keys) {
  if (!initialized_) {
    return FailedPreconditionError("engine not initialized");
  }
  SHPIR_RETURN_IF_ERROR(RollForward());
  if (!rotate_keys) {
    // Re-sealing every slot under the same key must fit its budget.
    SHPIR_RETURN_IF_ERROR(cpu_->CheckSealBudget(disk_slots_));
  }
  // Stream every page in (disk + cache already in memory).
  std::vector<Page> all(id_space_);
  constexpr uint64_t kChunk = 1024;
  std::vector<Bytes> sealed;
  std::vector<Page> chunk;
  for (uint64_t start = 0; start < disk_slots_; start += kChunk) {
    const uint64_t count = std::min(kChunk, disk_slots_ - start);
    SHPIR_RETURN_IF_ERROR(cpu_->ReadRun(start, count, sealed));
    chunk.resize(count);
    SHPIR_RETURN_IF_ERROR(cpu_->OpenPages(sealed, chunk));
    for (Page& page : chunk) {
      all[page.id] = std::move(page);
    }
  }
  for (const Page& cached : page_cache_) {
    all[cached.id] = cached;
  }
  // Physically destroy dead contents.
  for (PageId id = 0; id < id_space_; ++id) {
    if (!live_[id]) {
      all[id].data.assign(options_.page_size, 0);
    }
  }
  // Everything is decrypted in device memory: safe to swap keys now.
  if (rotate_keys) {
    SHPIR_RETURN_IF_ERROR(cpu_->InstallFreshKeys());
  }
  // Fresh permutation of the full id space; positions >= disk_slots_
  // land in the cache.
  const std::vector<uint64_t> perm =
      crypto::RandomPermutation(id_space_, cpu_->rng());
  const std::vector<uint64_t> inv = crypto::InvertPermutation(perm);
  for (uint64_t start = 0; start < disk_slots_; start += kChunk) {
    const uint64_t count = std::min(kChunk, disk_slots_ - start);
    chunk.resize(count);
    sealed.resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      const PageId id = inv[start + i];
      chunk[i] = std::move(all[id]);
      page_map_.SetDiskLocation(id, start + i);
    }
    SHPIR_RETURN_IF_ERROR(cpu_->SealPages(chunk, sealed));
    SHPIR_RETURN_IF_ERROR(cpu_->WriteRun(start, sealed));
  }
  for (uint64_t j = 0; j < options_.cache_pages; ++j) {
    const PageId id = inv[disk_slots_ + j];
    page_cache_[j] = std::move(all[id]);
    page_map_.SetCacheIndex(id, j);
  }
  next_block_ = 0;
  if (metered()) {
    instruments_.reshuffles->Increment();
    if (rotate_keys) {
      instruments_.key_rotations->Increment();
    }
    instruments_.block_cursor->Set(0.0);
  }
  return OkStatus();
}

namespace {
constexpr uint64_t kStateMagic = 0x5348504952535431ull;  // "SHPIRST1".
constexpr uint64_t kStateVersion = 1;
}  // namespace

Result<Bytes> CApproxPir::SerializeState() const {
  if (!initialized_) {
    return FailedPreconditionError("engine not initialized");
  }
  if (pending_write_.has_value()) {
    return FailedPreconditionError(
        "a round's write-back is pending; the disk is a round behind");
  }
  ByteWriter writer;
  writer.WriteU64(kStateMagic);
  writer.WriteU64(kStateVersion);
  writer.WriteU64(options_.num_pages);
  writer.WriteU64(options_.page_size);
  writer.WriteU64(options_.cache_pages);
  writer.WriteU64(block_size_);
  writer.WriteU64(disk_slots_);
  writer.WriteU64(next_block_);
  writer.WriteU64(stats_.queries);
  writer.WriteU64(stats_.cache_hits);
  writer.WriteU64(stats_.block_hits);
  writer.WriteU64(stats_.inserts);
  writer.WriteU64(stats_.removes);
  writer.WriteU64(stats_.modifies);
  for (PageId id = 0; id < id_space_; ++id) {
    const bool cached = page_map_.IsCached(id);
    // shpir-lint-allow-next-line(secret-branch): serialization of the secret state itself; the blob never leaves the boundary unsealed
    uint8_t flags = cached ? 1 : 0;
    if (live_[id]) {
      flags |= 2;
    }
    // shpir-lint-allow-next-line(secret-wire): state snapshot written into an in-device buffer; the caller seals the blob before it crosses the trust boundary
    writer.WriteU8(flags);
    // shpir-lint-allow-next-line(secret-branch, secret-wire): serialization of the secret state itself; the blob never leaves the boundary unsealed
    writer.WriteU64(cached ? page_map_.CacheIndex(id)
                           : page_map_.DiskLocation(id));
  }
  writer.WriteU64(free_ids_.size());
  for (PageId id : free_ids_) {
    writer.WriteU64(id);
  }
  for (const Page& page : page_cache_) {
    // shpir-lint-allow-next-line(secret-wire): cached page ids are part of the sealed state snapshot
    writer.WriteU64(page.id);
    // shpir-lint-allow-next-line(secret-wire): cached page contents are part of the sealed state snapshot
    writer.WriteRaw(page.data);
  }
  return writer.Take();
}

Status CApproxPir::RestoreState(ByteSpan state) {
  if (initialized_) {
    return FailedPreconditionError("already initialized");
  }
  ByteReader reader(state);
  SHPIR_ASSIGN_OR_RETURN(const uint64_t magic, reader.ReadU64());
  SHPIR_ASSIGN_OR_RETURN(const uint64_t version, reader.ReadU64());
  if (magic != kStateMagic || version != kStateVersion) {
    return DataLossError("not a shpir engine state blob");
  }
  SHPIR_ASSIGN_OR_RETURN(const uint64_t num_pages, reader.ReadU64());
  SHPIR_ASSIGN_OR_RETURN(const uint64_t page_size, reader.ReadU64());
  SHPIR_ASSIGN_OR_RETURN(const uint64_t cache_pages, reader.ReadU64());
  SHPIR_ASSIGN_OR_RETURN(const uint64_t block_size, reader.ReadU64());
  SHPIR_ASSIGN_OR_RETURN(const uint64_t disk_slots, reader.ReadU64());
  if (num_pages != options_.num_pages || page_size != options_.page_size ||
      cache_pages != options_.cache_pages || block_size != block_size_ ||
      disk_slots != disk_slots_) {
    return InvalidArgumentError("state geometry does not match engine");
  }
  SHPIR_ASSIGN_OR_RETURN(next_block_, reader.ReadU64());
  if (next_block_ >= scan_period()) {
    return DataLossError("corrupt state: block cursor out of range");
  }
  SHPIR_ASSIGN_OR_RETURN(stats_.queries, reader.ReadU64());
  SHPIR_ASSIGN_OR_RETURN(stats_.cache_hits, reader.ReadU64());
  SHPIR_ASSIGN_OR_RETURN(stats_.block_hits, reader.ReadU64());
  SHPIR_ASSIGN_OR_RETURN(stats_.inserts, reader.ReadU64());
  SHPIR_ASSIGN_OR_RETURN(stats_.removes, reader.ReadU64());
  SHPIR_ASSIGN_OR_RETURN(stats_.modifies, reader.ReadU64());
  for (PageId id = 0; id < id_space_; ++id) {
    SHPIR_ASSIGN_OR_RETURN(const uint8_t entry_flags, reader.ReadU8());
    SHPIR_ASSIGN_OR_RETURN(const uint64_t position, reader.ReadU64());
    if (entry_flags & 1) {
      if (position >= options_.cache_pages) {
        return DataLossError("corrupt state: cache index out of range");
      }
      page_map_.SetCacheIndex(id, position);
    } else {
      if (position >= disk_slots_) {
        return DataLossError("corrupt state: disk location out of range");
      }
      page_map_.SetDiskLocation(id, position);
    }
    live_[id] = (entry_flags & 2) != 0;
  }
  SHPIR_ASSIGN_OR_RETURN(const uint64_t free_count, reader.ReadU64());
  if (free_count > id_space_) {
    return DataLossError("corrupt state: free list too long");
  }
  free_ids_.resize(free_count);
  for (uint64_t i = 0; i < free_count; ++i) {
    SHPIR_ASSIGN_OR_RETURN(free_ids_[i], reader.ReadU64());
    if (free_ids_[i] >= id_space_) {
      return DataLossError("corrupt state: free id out of range");
    }
  }
  page_cache_.resize(options_.cache_pages);
  for (Page& page : page_cache_) {
    SHPIR_ASSIGN_OR_RETURN(page.id, reader.ReadU64());
    SHPIR_ASSIGN_OR_RETURN(page.data, reader.ReadRaw(options_.page_size));
  }
  if (!reader.AtEnd()) {
    return DataLossError("corrupt state: trailing bytes");
  }
  initialized_ = true;
  return OkStatus();
}

Result<storage::Location> CApproxPir::DebugLocation(PageId id) const {
  if (id >= id_space_) {
    return NotFoundError("id out of range");
  }
  // shpir-lint-allow-next-line(secret-branch): test/analysis hook; a physical device would not expose this
  if (page_map_.IsCached(id)) {
    return FailedPreconditionError("page is cached");
  }
  return page_map_.DiskLocation(id);
}

bool CApproxPir::DebugIsCached(PageId id) const {
  return id < id_space_ && page_map_.IsCached(id);
}

}  // namespace shpir::core
