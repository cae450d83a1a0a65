#include "shard/sharded_engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/mutex.h"
#include "core/security_parameter.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "storage/page_cipher.h"

namespace shpir::shard {

namespace {

/// Offset for deriving per-shard dummy-generator seeds, far from the
/// per-shard device seeds (seed + i) so the streams never collide for
/// any realistic shard count.
constexpr uint64_t kDummySeedOffset = 1000000;

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

ShardedPirEngine::ShardedPirEngine(ShardPlan plan, size_t page_size,
                                   Options options)
    : plan_(std::move(plan)),
      page_size_(page_size),
      options_(std::move(options)) {}

Result<std::unique_ptr<ShardedPirEngine>> ShardedPirEngine::Create(
    const Options& options) {
  if (options.page_size == 0) {
    return InvalidArgumentError("page_size must be nonzero");
  }
  SHPIR_ASSIGN_OR_RETURN(
      ShardPlan plan,
      ShardPlan::Compute(options.num_pages, options.cache_pages,
                         options.privacy_c, options.shards,
                         options.cache_mode));
  std::unique_ptr<ShardedPirEngine> engine(
      new ShardedPirEngine(std::move(plan), options.page_size, options));
  const ShardPlan& p = engine->plan_;
  if (!options.disks.empty() &&
      (options.disks.size() != p.shards() ||
       std::count(options.disks.begin(), options.disks.end(), nullptr) > 0)) {
    return InvalidArgumentError("disks must name one disk per shard");
  }
  for (uint64_t i = 0; i < p.shards(); ++i) {
    const ShardPlan::ShardSpec& spec = p.spec(i);
    core::CApproxPir::Options eopts;
    eopts.num_pages = spec.num_pages;
    eopts.page_size = options.page_size;
    eopts.cache_pages = spec.cache_pages;
    eopts.privacy_c = options.privacy_c;
    eopts.block_size = spec.block_size;  // From the plan (Eq. 6 at n_i).
    eopts.enforce_secure_memory = options.enforce_secure_memory;
    SHPIR_ASSIGN_OR_RETURN(uint64_t slots,
                           core::CApproxPir::DiskSlots(eopts));

    auto shard = std::make_unique<Shard>(
        options.seed.has_value()
            ? crypto::SecureRandom(*options.seed + kDummySeedOffset + i)
            : crypto::SecureRandom());
    storage::Disk* disk = nullptr;
    if (options.disks.empty()) {
      shard->disk = std::make_unique<storage::MemoryDisk>(
          slots, storage::PageCipher::SealedSize(options.page_size));
      disk = shard->disk.get();
    } else {
      disk = options.disks[i];
    }
    // Always in the stack: a pure pass-through until EnableTracing
    // attaches a collector.
    shard->span_disk = std::make_unique<storage::SpanDisk>(disk);
    if (options.enable_traces) {
      shard->trace = std::make_unique<storage::AccessTrace>();
    }
    SHPIR_ASSIGN_OR_RETURN(
        shard->stack,
        core::EngineStack::Create(
            eopts, options.profile,
            options.seed.has_value()
                ? std::optional<uint64_t>(*options.seed + i)
                : std::nullopt,
            shard->span_disk.get(), shard->trace.get()));
    shard->engine = &shard->stack->engine();
    engine->shards_.push_back(std::move(shard));
  }
  Dispatcher::Options dopts;
  dopts.queues = p.shards();
  dopts.queue_depth = options.queue_depth;
  engine->dispatcher_ = std::make_unique<Dispatcher>(dopts);
  return engine;
}

Status ShardedPirEngine::Initialize(const std::vector<storage::Page>& pages) {
  if (pages.size() > plan_.total_pages()) {
    return InvalidArgumentError("more pages than the plan holds");
  }
  for (uint64_t i = 0; i < plan_.shards(); ++i) {
    const ShardPlan::ShardSpec& spec = plan_.spec(i);
    std::vector<storage::Page> local;
    local.reserve(spec.num_pages);
    for (uint64_t g = spec.first_page;
         g < spec.first_page + spec.num_pages && g < pages.size(); ++g) {
      local.emplace_back(g - spec.first_page, pages[g].data);
    }
    SHPIR_RETURN_IF_ERROR(shards_[i]->engine->Initialize(local));
  }
  return OkStatus();
}

Result<Bytes> ShardedPirEngine::Retrieve(storage::PageId id) {
  return TracedRetrieve(id, obs::TraceContext{});
}

Result<Bytes> ShardedPirEngine::TracedRetrieve(storage::PageId id,
                                               const obs::TraceContext& ctx) {
  return FanOut(id, ctx, RetrieveOnShard);
}

Status ShardedPirEngine::Modify(storage::PageId id, Bytes data) {
  return FanOut(id, obs::TraceContext{},
                [data = std::move(data)](
                    core::CApproxPir* engine, storage::PageId local,
                    const obs::TraceContext& qctx,
                    const core::CApproxPir::ServedSink& served) mutable {
                  (void)qctx;
                  return engine->Modify(local, std::move(data), served);
                })
      .status();
}

Status ShardedPirEngine::Remove(storage::PageId id) {
  return FanOut(id, obs::TraceContext{},
                [](core::CApproxPir* engine, storage::PageId local,
                   const obs::TraceContext& qctx,
                   const core::CApproxPir::ServedSink& served) {
                  (void)qctx;
                  return engine->Remove(local, served);
                })
      .status();
}

Status ShardedPirEngine::RetrieveOnShard(
    core::CApproxPir* engine, storage::PageId local,
    const obs::TraceContext& ctx, const core::CApproxPir::ServedSink& served) {
  return engine->TracedRetrieve(local, ctx, served);
}

Result<Bytes> ShardedPirEngine::FanOut(storage::PageId id,
                                       const obs::TraceContext& ctx,
                                       ShardCall real) {
  if (id >= plan_.total_pages()) {
    return NotFoundError("page id out of range");
  }
  const uint64_t owner = plan_.OwnerOf(id);
  const storage::PageId local = plan_.LocalId(id);

  // Span covering the fan-out up to the caller's answer (inert without
  // an active context). Every shard job gets its context by value: the
  // jobs outlive this frame.
  obs::TraceSpan fan_span(tracer_, ctx, "shard_fanout");
  const obs::TraceContext fan_ctx = fan_span.context();
  // The submit timestamp feeds both the retroactive queue-wait trace
  // span and the profiler's queue-wait attribution.
  const uint64_t submit_ns = fan_ctx.active() || profiler_ != nullptr
                                 ? obs::Tracer::NowNs()
                                 : 0;

  // The owner shard's job answers the caller through `join` at its
  // round's served point and goes on to finish the round, so `join`
  // lives on this frame only until the answer: the job never touches it
  // after delivering (queued jobs always run, even during Drain).
  struct Join {
    common::Mutex mutex;
    common::CondVar cv;
    std::optional<Result<Bytes>> result GUARDED_BY(mutex);
  } join;

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = options_.deadline.count() > 0
                            ? start + options_.deadline
                            : Dispatcher::kNoDeadline;

  std::vector<Dispatcher::Job> jobs(plan_.shards());
  for (uint64_t s = 0; s < plan_.shards(); ++s) {
    // shpir-lint-allow-next-line(secret-compare, secret-loop-bound): cover fan-out: every shard receives exactly one query; this branch only picks which closure runs, invisible in the emitted traffic and trace
    if (s == owner) {
      continue;
    }
    jobs[s] = [this, s, fan_ctx, submit_ns](const Status& admission) {
      // The wait span is recorded even for expired admissions: the
      // request *did* wait, and that wait is the interesting part.
      RecordShardQueueWait(fan_ctx, submit_ns, static_cast<int32_t>(s));
      if (!admission.ok()) {
        RecordExpiredQuery(s);
        return;
      }
      if (metered()) {
        instruments_.dummy_queries->Increment();
      }
      const storage::PageId cover =
          shards_[s]->dummy_rng.UniformInt(plan_.spec(s).num_pages);
      const Status discarded =
          RunShardQuery(s, fan_ctx, cover, /*dummy=*/true, RetrieveOnShard,
                        [](Result<Bytes>) {});
      if (!discarded.ok() && metered()) {
        // A dummy can hit a Removed id; the round still ran, the payload
        // is discarded either way.
        instruments_.dummy_failures->Increment();
      }
    };
  }
  // shpir-lint-allow-next-line(secret-index): slot assignment in the per-shard job array; all shards are submitted identically
  jobs[owner] = [this, owner, local, fan_ctx, submit_ns, join = &join,
                 real = std::move(real)](const Status& admission) {
    RecordShardQueueWait(fan_ctx, submit_ns, static_cast<int32_t>(owner));
    const auto deliver = [join](Result<Bytes> answer) {
      common::MutexLock lock(join->mutex);
      join->result = std::move(answer);
      // Notify under the lock: the waiter owns `join`'s stack frame and
      // may destroy it the instant it observes `result` unlocked.
      join->cv.NotifyOne();
    };
    if (!admission.ok()) {
      // shpir-lint-allow-next-line(secret-arg): the expired owner query records the same failed SLO sample an expired cover records on its own shard
      RecordExpiredQuery(owner);
      deliver(admission);
      return;
    }
    // shpir-lint-allow-next-line(secret-arg): the owner shard runs the same query body as every cover shard, under the same span, observer, SLO and failure accounting
    RunShardQuery(owner, fan_ctx, local, /*dummy=*/false, real, deliver);
  };

  const Status submitted = dispatcher_->SubmitAll(std::move(jobs), deadline);
  if (!submitted.ok()) {
    // Admission rejection is the availability failure the SLO exists to
    // catch (the queue was full; no shard ever saw the request).
    if (logical_slo_ != nullptr) {
      logical_slo_->Record(ElapsedNs(start), /*ok=*/false);
    }
    if (eventlog_ != nullptr) {
      // Rejection happens before any shard sees the request, so the
      // event carries only fleet-level facts.
      eventlog_->Emit(obs::EventLevel::kWarn, "fanout_rejected",
                      {{"shards", plan_.shards()}});
    }
    if (recorder_ != nullptr) {
      // Poll immediately: the rejection itself is a trigger edge.
      recorder_->Poll();
    }
    return submitted;
  }

  common::MutexLock lock(join.mutex);
  // shpir-lint-allow-next-line(secret-loop-bound): completion join; blocks until the owner shard's round reaches its served point
  while (!join.result.has_value()) {
    join.cv.Wait(lock);
  }
  if (logical_slo_ != nullptr) {
    // shpir-lint-allow-next-line(secret-log): logical-query SLO sample; success bit and latency of the whole fan-out, identical in shape for every query
    logical_slo_->Record(ElapsedNs(start), join.result->ok());
  }
  const uint64_t latency_ns = ElapsedNs(start);
  if (metered()) {
    instruments_.logical_queries->Increment();
    // Traced queries pin a trace-id exemplar to the latency histogram,
    // so a p99 spike links straight to an example trace. The trace id
    // is sampling metadata, independent of the target page.
    if (fan_ctx.active()) {
      instruments_.fanout_latency_ns->RecordWithExemplar(latency_ns,
                                                         fan_ctx.trace_id);
    } else {
      instruments_.fanout_latency_ns->Record(latency_ns);
    }
  }
  if (eventlog_ != nullptr) {
    // One event per LOGICAL query, never per shard query: identical
    // emission — level, name, field names — whichever shard owns the
    // target, so event shapes are target-independent by construction.
    // shpir-lint-allow-next-line(secret-branch, secret-log): one event per logical query with target-independent shape; only whole-fan-out latency and the success bit are emitted
    eventlog_->Emit(obs::EventLevel::kDebug, "fanout_complete", /*shard=*/-1,
                    fan_ctx.trace_id,
                    {{"latency_ns", latency_ns},
                     {"ok", join.result->ok() ? 1 : 0}});
  }
  if (recorder_ != nullptr &&
      (fanout_count_.fetch_add(1, std::memory_order_relaxed) + 1) %
              kRecorderPollPeriod ==
          0) {
    recorder_->Poll();
  }
  return *std::move(join.result);
}

Status ShardedPirEngine::RunShardQuery(
    uint64_t shard_index, const obs::TraceContext& fan_ctx,
    storage::PageId local, bool dummy, const ShardCall& call,
    const std::function<void(Result<Bytes>)>& answer) {
  Shard* shard = shards_[shard_index].get();
  // Same span name for real and cover queries: telling them apart in the
  // trace would name the owner.
  obs::TraceSpan query_span(tracer_, fan_ctx, "shard_query",
                            static_cast<int32_t>(shard_index));
  shard->span_disk->set_context(query_span.context());
  if (observer_) {
    observer_(shard_index, shard->requests_served, local, dummy);
  }
  ++shard->requests_served;
  const auto query_start = std::chrono::steady_clock::now();
  bool answered = false;
  const Status finished =
      call(shard->engine, local, query_span.context(), [&](Bytes payload) {
        answered = true;
        answer(std::move(payload));
      });
  if (!answered) {
    answer(finished);
  }
  if (shard->slo != nullptr) {
    // Covers record into the shard SLO exactly like real queries —
    // skipping them would make the tracker's counts a function of
    // where the real targets live.
    // shpir-lint-allow-next-line(secret-log): only the success bit of the shard round enters the SLO tracker, recorded identically for covers and real queries
    shard->slo->Record(ElapsedNs(query_start), finished.ok());
  }
  shard->span_disk->clear_context();
  if (answered && !finished.ok()) {
    // Answered, then the write-back failed: the engine rolls it forward
    // on this shard's next round.
    if (metered()) {
      instruments_.finish_failures->Increment();
    }
    if (eventlog_ != nullptr) {
      eventlog_->Emit(obs::EventLevel::kWarn, "shard_finish_failed",
                      static_cast<int32_t>(shard_index), fan_ctx.trace_id,
                      {{"code", static_cast<uint64_t>(finished.code())}});
    }
  }
  return finished;
}

void ShardedPirEngine::RecordExpiredQuery(uint64_t shard_index) {
  if (shards_[shard_index]->slo != nullptr) {
    // Expired queries, real or cover, burn this shard's availability
    // budget alike.
    shards_[shard_index]->slo->Record(0, /*ok=*/false);
  }
}

void ShardedPirEngine::RecordShardQueueWait(const obs::TraceContext& fan_ctx,
                                            uint64_t submit_ns,
                                            int32_t shard) {
  if (submit_ns == 0) {
    return;
  }
  if (profiler_ != nullptr) {
    const uint64_t picked_up = obs::Tracer::NowNs();
    profiler_->AddExternalSample(
        {"shard_fanout", "queue_wait"},
        picked_up > submit_ns ? picked_up - submit_ns : 0);
  }
  if (tracer_ == nullptr || !fan_ctx.active()) {
    return;
  }
  obs::SpanRecord wait;
  wait.trace_id = fan_ctx.trace_id;
  wait.span_id = tracer_->NewSpanId();
  wait.parent_span_id = fan_ctx.span_id;
  wait.name = "queue_wait";
  wait.start_ns = submit_ns;
  const uint64_t now = obs::Tracer::NowNs();
  wait.duration_ns = now > submit_ns ? now - submit_ns : 0;
  wait.shard = shard;
  tracer_->Record(wait);
}

void ShardedPirEngine::EnableTracing(obs::Tracer* tracer) {
  tracer_ = tracer;
  for (uint64_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->engine->EnableTracing(tracer, static_cast<int32_t>(i));
    shards_[i]->span_disk->set_tracer(tracer, static_cast<int32_t>(i));
  }
}

void ShardedPirEngine::EnableProfiling(obs::Profiler* profiler) {
  profiler_ = profiler;
  for (auto& shard : shards_) {
    shard->engine->EnableProfiling(profiler);
  }
}

void ShardedPirEngine::EnableSlo(const obs::SloTracker::Objectives& objectives,
                                 obs::MetricsRegistry* registry) {
  logical_slo_ = std::make_unique<obs::SloTracker>(objectives);
  for (auto& shard : shards_) {
    shard->slo = std::make_unique<obs::SloTracker>(objectives);
  }
  if (registry != nullptr) {
    // Only the logical tracker exports gauges: per-shard trackers
    // would collide on the flat name space, and the fleet view plus
    // the worst-shard indicator below is what alerting needs. Shard
    // detail stays in the "slo" admin document.
    logical_slo_->PublishMetrics(registry);
    registry->RegisterCallbackGauge("shpir_slo_shards_firing", [this] {
      double firing = 0;
      for (auto& shard : shards_) {
        const obs::SloTracker::Snapshot snapshot = shard->slo->Evaluate();
        bool any = false;
        for (const auto& rule : snapshot.availability.rules) {
          any = any || rule.firing;
        }
        for (const auto& rule : snapshot.latency.rules) {
          any = any || rule.firing;
        }
        if (any) {
          firing += 1.0;
        }
      }
      return firing;
    });
  }
}

std::string ShardedPirEngine::SloStatusJson() {
  if (logical_slo_ == nullptr) {
    return "{}";
  }
  std::string out = "{\"logical\":";
  out += logical_slo_->ToJson();
  out += ",\"shards\":[";
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += shards_[i]->slo->ToJson();
  }
  out += "]}";
  return out;
}

void ShardedPirEngine::EnablePrivacyMonitor(obs::MetricsRegistry* registry,
                                            uint64_t window) {
  for (auto& shard : shards_) {
    obs::PrivacyMonitor::Options mopts;
    mopts.scan_period = shard->engine->scan_period();
    mopts.window = window;
    mopts.configured_c = shard->engine->achieved_privacy();
    shard->monitor = std::make_unique<obs::PrivacyMonitor>(mopts);
    shard->monitor->EnableMetrics(registry);
    shard->engine->AttachPrivacyMonitor(shard->monitor.get());
  }
}

void ShardedPirEngine::PublishPrivacyEstimates() {
  for (auto& shard : shards_) {
    if (shard->monitor != nullptr) {
      shard->monitor->PublishNow();
    }
  }
}

Status ShardedPirEngine::RequestShardBlockSize(uint64_t shard,
                                               uint64_t new_k) {
  if (shard >= shards_.size()) {
    return InvalidArgumentError("shard index out of range");
  }
  // The shard engine is single-threaded on its worker: the request
  // must run there, between rounds, like every other engine mutation.
  struct Join {
    common::Mutex mutex;
    common::CondVar cv;
    std::optional<Status> result GUARDED_BY(mutex);
  } join;
  const Status submitted = dispatcher_->Submit(
      shard, [this, shard, new_k, &join](const Status& admission) {
        Status outcome =
            admission.ok()
                ? shards_[shard]->engine->RequestBlockSize(new_k)
                : admission;
        common::MutexLock lock(join.mutex);
        join.result = std::move(outcome);
        join.cv.NotifyOne();
      });
  if (!submitted.ok()) {
    return submitted;  // Queue full / draining: nothing was enqueued.
  }
  common::MutexLock lock(join.mutex);
  while (!join.result.has_value()) {
    join.cv.Wait(lock);
  }
  return *join.result;
}

ShardedPirEngine::ShardControlState ShardedPirEngine::ShardControl(
    uint64_t shard) const {
  ShardControlState state;
  if (shard >= shards_.size()) {
    return state;
  }
  const Shard* s = shards_[shard].get();
  state.block_size = s->engine->published_block_size();
  state.pending_block_size = s->engine->pending_block_size();
  state.transitions = s->engine->block_size_transitions();
  state.disk_slots = s->engine->disk_slots();
  state.cache_pages = s->engine->cache_pages();
  const Result<double> c = core::SecurityParameter::PrivacyOf(
      state.disk_slots, state.cache_pages, state.block_size);
  state.c_theory = c.ok() ? *c : 0.0;
  if (s->monitor != nullptr) {
    state.c_estimate = s->monitor->EstimateOrZero();
  }
  state.queue_depth = dispatcher_->depth(shard);
  state.queue_capacity = dispatcher_->queue_depth();
  return state;
}

void ShardedPirEngine::EnableEventLog(obs::EventLog* log) {
  eventlog_ = log;
  if (eventlog_ != nullptr) {
    eventlog_->Emit(obs::EventLevel::kInfo, "shard_runtime_started",
                    {{"shards", plan_.shards()},
                     {"total_pages", plan_.total_pages()},
                     {"queue_depth", options_.queue_depth}});
  }
}

std::string ShardedPirEngine::ConfigFingerprint() const {
  uint64_t max_k = 0;
  for (const auto& spec : plan_.specs()) {
    max_k = std::max(max_k, spec.block_size);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "shards=%llu pages=%llu page_size=%zu k=%llu c=%.2f "
                "queue_depth=%zu",
                static_cast<unsigned long long>(plan_.shards()),
                static_cast<unsigned long long>(plan_.total_pages()),
                page_size_, static_cast<unsigned long long>(max_k),
                plan_.worst_c(), options_.queue_depth);
  return std::string(buf) + " | " + obs::BuildInfoSummary();
}

void ShardedPirEngine::EnableFlightRecorder(obs::FlightRecorder* recorder) {
  recorder_ = recorder;
  if (recorder_ == nullptr) {
    return;
  }
  recorder_->SetConfigFingerprint(ConfigFingerprint());
  // Register the triggers once per recorder: re-attaching the same
  // recorder (config reload, bench toggling) must not accumulate
  // duplicate trigger sources.
  if (recorder_ == trigger_host_) {
    return;
  }
  trigger_host_ = recorder_;
  // Edge triggers read aggregate counters only; every callback is
  // thread-safe and target-independent.
  recorder_->AddTrigger("privacy_breach", [this] {
    uint64_t breaches = 0;
    for (auto& shard : shards_) {
      if (shard->monitor != nullptr) {
        breaches += shard->monitor->breaches();
      }
    }
    return breaches;
  });
  if (logical_slo_ != nullptr) {
    recorder_->AddTrigger("slo_burn_alert", [this] {
      return logical_slo_->Evaluate().alert_transitions;
    });
  }
  recorder_->AddTrigger("dispatcher_overload", [this] {
    return dispatcher_->rejections() + dispatcher_->expirations();
  });
}

std::string ShardedPirEngine::HealthJson() {
  const bool draining = dispatcher_->draining();
  size_t depth = 0;
  for (size_t q = 0; q < dispatcher_->queues(); ++q) {
    depth += dispatcher_->depth(q);
  }
  uint64_t breaches = 0;
  bool monitored = false;
  for (auto& shard : shards_) {
    if (shard->monitor != nullptr) {
      monitored = true;
      breaches += shard->monitor->breaches();
    }
  }
  bool degraded = false;
  std::string slo_json = "null";
  if (logical_slo_ != nullptr) {
    const obs::SloTracker::Snapshot snapshot = logical_slo_->Evaluate();
    for (const auto* sli : {&snapshot.availability, &snapshot.latency}) {
      for (const auto& rule : sli->rules) {
        degraded = degraded || rule.firing;
      }
    }
    slo_json = obs::SloTracker::SnapshotJson(snapshot);
  }
  degraded = degraded || (monitored && breaches > 0);
  std::string out = "{\"ready\":";
  out += draining ? "false" : "true";
  out += ",\"degraded\":";
  out += degraded ? "true" : "false";
  out += ",\"role\":\"shard\",\"build\":\"";
  out += obs::EscapeJsonString(obs::BuildInfoSummary());
  out += "\",\"dispatcher\":{\"queues\":";
  out += std::to_string(dispatcher_->queues());
  out += ",\"depth\":";
  out += std::to_string(depth);
  out += ",\"capacity\":";
  out += std::to_string(dispatcher_->queue_depth());
  out += ",\"draining\":";
  out += draining ? "true" : "false";
  out += ",\"rejections\":";
  out += std::to_string(dispatcher_->rejections());
  out += ",\"expirations\":";
  out += std::to_string(dispatcher_->expirations());
  out += "},\"privacy_breaches\":";
  out += monitored ? std::to_string(breaches) : "null";
  out += ",\"slo\":";
  out += slo_json;
  out += ",\"eventlog_dropped\":";
  out += eventlog_ != nullptr ? std::to_string(eventlog_->dropped()) : "null";
  out += ",\"incidents_sealed\":";
  out += recorder_ != nullptr ? std::to_string(recorder_->sealed()) : "null";
  out += "}";
  return out;
}

void ShardedPirEngine::EnableMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    instruments_ = Instruments{};
    dispatcher_->EnableMetrics(nullptr);
    for (auto& shard : shards_) {
      shard->engine->EnableMetrics(nullptr);
    }
    return;
  }
  instruments_.logical_queries =
      registry->FindOrCreateCounter("shpir_shard_logical_queries_total");
  instruments_.dummy_queries =
      registry->FindOrCreateCounter("shpir_shard_dummy_queries_total");
  instruments_.dummy_failures =
      registry->FindOrCreateCounter("shpir_shard_dummy_failures_total");
  instruments_.finish_failures =
      registry->FindOrCreateCounter("shpir_shard_finish_failures_total");
  instruments_.fanout_latency_ns =
      registry->FindOrCreateHistogram("shpir_shard_fanout_latency_ns");
  instruments_.shard_count =
      registry->FindOrCreateGauge("shpir_shard_count");
  instruments_.block_size_k =
      registry->FindOrCreateGauge("shpir_shard_block_size_k");
  instruments_.achieved_privacy_c =
      registry->FindOrCreateGauge("shpir_shard_achieved_privacy_c");
  instruments_.shard_count->Set(static_cast<double>(plan_.shards()));
  uint64_t max_k = 0;
  for (const auto& spec : plan_.specs()) {
    max_k = std::max(max_k, spec.block_size);
  }
  instruments_.block_size_k->Set(static_cast<double>(max_k));
  instruments_.achieved_privacy_c->Set(plan_.worst_c());
  dispatcher_->EnableMetrics(registry);
  // Shard engines share one set of shpir_engine_* instruments: their
  // counters and histograms export fleet-wide aggregates, never a
  // per-shard breakdown.
  for (auto& shard : shards_) {
    shard->engine->EnableMetrics(registry);
  }
}

}  // namespace shpir::shard
