#include "control/controller.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string_view>
#include <utility>

#include "core/security_parameter.h"
#include "shard/sharded_engine.h"

namespace shpir::control {

namespace {

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

// --- ShardedEnginePlant ----------------------------------------------------

uint64_t ShardedEnginePlant::shards() const { return engine_->shards(); }

uint64_t ShardedEnginePlant::disk_slots(uint64_t shard) const {
  return engine_->ShardControl(shard).disk_slots;
}

uint64_t ShardedEnginePlant::cache_pages(uint64_t shard) const {
  return engine_->ShardControl(shard).cache_pages;
}

ShardSignals ShardedEnginePlant::Read(uint64_t shard) {
  const shard::ShardedPirEngine::ShardControlState state =
      engine_->ShardControl(shard);
  ShardSignals signals;
  signals.block_size = state.block_size;
  signals.pending_block_size = state.pending_block_size;
  signals.c_estimate = state.c_estimate;
  signals.queue_fraction =
      state.queue_capacity > 0
          ? static_cast<double>(state.queue_depth) /
                static_cast<double>(state.queue_capacity)
          : 0.0;
  obs::SloTracker* slo = engine_->shard_slo(shard);
  if (slo != nullptr) {
    const obs::SloTracker::Snapshot snapshot = slo->Evaluate();
    for (const auto* sli : {&snapshot.availability, &snapshot.latency}) {
      for (size_t r = 0; r < obs::SloTracker::kNumRules; ++r) {
        const auto& rule = sli->rules[r];
        const double threshold =
            obs::SloTracker::kDefaultRules[r].burn_threshold;
        // A rule fires only when BOTH windows burn past its threshold,
        // so the pre-alert signal is the lesser of the two burns.
        const double burn =
            std::min(rule.short_burn, rule.long_burn) / threshold;
        signals.burn = std::max(signals.burn, burn);
        signals.slo_firing = signals.slo_firing || rule.firing;
      }
    }
  }
  return signals;
}

Status ShardedEnginePlant::RequestBlockSize(uint64_t shard, uint64_t new_k) {
  return engine_->RequestShardBlockSize(shard, new_k);
}

// --- PrivacyCostController -------------------------------------------------

const char* PrivacyCostController::OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kHold:
      return "hold";
    case Outcome::kApplied:
      return "applied";
    case Outcome::kDeferred:
      return "deferred";
    case Outcome::kSkipped:
      return "skipped";
    case Outcome::kClamped:
      return "clamped";
    case Outcome::kFrozen:
      return "frozen";
  }
  return "unknown";
}

std::vector<uint64_t> PrivacyCostController::ComputeLadder(
    uint64_t disk_slots, uint64_t cache_pages, uint64_t k_min,
    uint64_t k_max, double c_bound) {
  std::vector<uint64_t> ladder;
  for (uint64_t d = 1; d * d <= disk_slots; ++d) {
    if (disk_slots % d != 0) {
      continue;
    }
    for (const uint64_t k : {d, disk_slots / d}) {
      if (disk_slots < 2 * k) {
        continue;  // The protocol needs a location outside the block.
      }
      if (k < k_min || (k_max != 0 && k > k_max)) {
        continue;
      }
      const Result<double> c =
          core::SecurityParameter::PrivacyOf(disk_slots, cache_pages, k);
      if (!c.ok() || *c > c_bound) {
        continue;  // This rung would break the configured bound.
      }
      ladder.push_back(k);
    }
  }
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  return ladder;
}

Result<std::unique_ptr<PrivacyCostController>> PrivacyCostController::Create(
    const Options& options, ControlPlant* plant) {
  if (plant == nullptr) {
    return InvalidArgumentError("control plant is required");
  }
  if (options.c_bound <= 1.0) {
    return InvalidArgumentError(
        "c_bound must be > 1 (c == 1 is full PIR; there is no headroom "
        "to trade)");
  }
  if (options.pressure_low < 0.0 ||
      options.pressure_low >= options.pressure_high) {
    return InvalidArgumentError(
        "hysteresis band requires 0 <= pressure_low < pressure_high");
  }
  if (options.k_max != 0 && options.k_min > options.k_max) {
    return InvalidArgumentError("k_min must be <= k_max");
  }
  if (plant->shards() == 0) {
    return InvalidArgumentError("plant has no shards");
  }
  std::vector<std::vector<uint64_t>> ladders;
  for (uint64_t s = 0; s < plant->shards(); ++s) {
    std::vector<uint64_t> ladder =
        ComputeLadder(plant->disk_slots(s), plant->cache_pages(s),
                      options.k_min, options.k_max, options.c_bound);
    if (ladder.empty()) {
      return InvalidArgumentError(
          "shard " + std::to_string(s) +
          " has no feasible block size within [k_min, k_max] under "
          "c_bound");
    }
    ladders.push_back(std::move(ladder));
  }
  return std::unique_ptr<PrivacyCostController>(
      new PrivacyCostController(options, plant, std::move(ladders)));
}

PrivacyCostController::PrivacyCostController(
    const Options& options, ControlPlant* plant,
    std::vector<std::vector<uint64_t>> ladders)
    : options_(options), plant_(plant) {
  common::MutexLock lock(mutex_);
  frozen_ = options.start_frozen;
  k_min_ = options.k_min;
  k_max_ = options.k_max;
  ladders_ = std::move(ladders);
  cooldown_.assign(ladders_.size(), 0);
}

PrivacyCostController::~PrivacyCostController() { Stop(); }

void PrivacyCostController::Start() {
  common::MutexLock lock(thread_mutex_);
  if (thread_.joinable()) {
    return;
  }
  stop_ = false;
  thread_ = std::thread([this] {
    common::MutexLock lock(thread_mutex_);
    while (!stop_) {
      lock.Unlock();
      TickNow();
      lock.Lock();
      if (stop_) {
        break;
      }
      thread_cv_.WaitFor(lock, options_.tick_interval);
    }
  });
}

void PrivacyCostController::Stop() {
  {
    common::MutexLock lock(thread_mutex_);
    if (!thread_.joinable()) {
      return;
    }
    stop_ = true;
    thread_cv_.NotifyAll();
  }
  thread_.join();
}

void PrivacyCostController::Freeze() {
  common::MutexLock lock(mutex_);
  frozen_ = true;
}

void PrivacyCostController::Unfreeze() {
  common::MutexLock lock(mutex_);
  frozen_ = false;
}

bool PrivacyCostController::frozen() const {
  common::MutexLock lock(mutex_);
  return frozen_;
}

Status PrivacyCostController::SetBounds(uint64_t k_min, uint64_t k_max) {
  if (k_min < 1) {
    return InvalidArgumentError("k_min must be >= 1");
  }
  if (k_max != 0 && k_min > k_max) {
    return InvalidArgumentError("k_min must be <= k_max");
  }
  std::vector<std::vector<uint64_t>> ladders;
  for (uint64_t s = 0; s < plant_->shards(); ++s) {
    std::vector<uint64_t> ladder =
        ComputeLadder(plant_->disk_slots(s), plant_->cache_pages(s), k_min,
                      k_max, options_.c_bound);
    if (ladder.empty()) {
      return InvalidArgumentError(
          "shard " + std::to_string(s) +
          " would have no feasible block size under the new bounds");
    }
    ladders.push_back(std::move(ladder));
  }
  common::MutexLock lock(mutex_);
  k_min_ = k_min;
  k_max_ = k_max;
  ladders_ = std::move(ladders);
  return OkStatus();
}

PrivacyCostController::Decision PrivacyCostController::DecideShard(
    uint64_t shard, uint64_t tick, const ShardSignals& signals) {
  Decision decision;
  decision.tick = tick;
  decision.shard = shard;
  decision.k_before = signals.block_size;
  decision.k_target = signals.block_size;
  decision.c_estimate = signals.c_estimate;
  decision.queue_fraction = signals.queue_fraction;
  decision.burn = signals.burn;
  decision.pressure =
      std::max({signals.queue_fraction, signals.burn,
                signals.slo_firing ? 1.0 : 0.0});
  const Result<double> c_theory = core::SecurityParameter::PrivacyOf(
      plant_->disk_slots(shard), plant_->cache_pages(shard),
      signals.block_size);
  decision.c_theory = c_theory.ok() ? *c_theory : 0.0;

  if (frozen_) {
    decision.outcome = Outcome::kFrozen;
    return decision;
  }

  const std::vector<uint64_t>& ladder = ladders_[shard];

  // Emergency clamp: the measured c broke the configured bound. Jump to
  // the most private feasible rung immediately — cooldown and bands do
  // not apply to a safety violation.
  if (signals.c_estimate > options_.c_bound) {
    const uint64_t target = ladder.back();
    if (signals.pending_block_size == target) {
      decision.outcome = Outcome::kDeferred;
      return decision;
    }
    if (signals.block_size >= target && signals.pending_block_size == 0) {
      decision.outcome = Outcome::kHold;  // Already at (or past) the top.
      return decision;
    }
    decision.k_target = target;
    const Status requested = plant_->RequestBlockSize(shard, target);
    if (requested.ok()) {
      decision.outcome = Outcome::kClamped;
      clamps_.fetch_add(1, std::memory_order_relaxed);
      cooldown_[shard] = options_.cooldown_ticks;
    } else {
      decision.outcome = Outcome::kSkipped;  // Retry next tick.
    }
    return decision;
  }

  if (signals.pending_block_size != 0) {
    decision.outcome = Outcome::kDeferred;  // Let the transition land.
    return decision;
  }
  if (cooldown_[shard] > 0) {
    --cooldown_[shard];
    decision.outcome = Outcome::kHold;
    return decision;
  }

  // Hysteresis-banded step decision along the feasible ladder.
  uint64_t target = signals.block_size;
  if (decision.pressure >= options_.pressure_high) {
    // Step DOWN one rung: cheaper rounds, weaker (but still bounded) c.
    for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
      if (*it < signals.block_size) {
        target = *it;
        break;
      }
    }
  } else if (decision.pressure <= options_.pressure_low) {
    // Step UP one rung: reclaim privacy while the system is quiet.
    for (const uint64_t rung : ladder) {
      if (rung > signals.block_size) {
        target = rung;
        break;
      }
    }
  }
  if (target == signals.block_size) {
    decision.outcome = Outcome::kHold;
    return decision;
  }
  decision.k_target = target;
  const Status requested = plant_->RequestBlockSize(shard, target);
  if (requested.ok()) {
    decision.outcome = Outcome::kApplied;
    cooldown_[shard] = options_.cooldown_ticks;
  } else {
    decision.outcome = Outcome::kSkipped;
  }
  return decision;
}

void PrivacyCostController::RecordDecision(const Decision& decision) {
  trail_.push_back(decision);
  while (trail_.size() > options_.decision_trail) {
    trail_.pop_front();
  }
}

void PrivacyCostController::TickNow() {
  // The span covers the whole tick: reads, decisions, actuation.
  std::optional<obs::TraceSpan> span;
  if (tracer_ != nullptr) {
    span.emplace(tracer_, "control_tick");
  }
  const uint64_t tick =
      ticks_.fetch_add(1, std::memory_order_relaxed) + 1;

  bool clamped_this_tick = false;
  double worst_c = 0.0;
  double max_pressure = 0.0;
  uint64_t min_k = 0;
  bool was_frozen = false;
  {
    common::MutexLock lock(mutex_);
    was_frozen = frozen_;
    for (uint64_t s = 0; s < plant_->shards(); ++s) {
      const ShardSignals signals = plant_->Read(s);
      const Decision decision = DecideShard(s, tick, signals);
      RecordDecision(decision);
      worst_c = std::max(
          {worst_c, decision.c_theory, decision.c_estimate});
      max_pressure = std::max(max_pressure, decision.pressure);
      min_k = min_k == 0 ? decision.k_before
                         : std::min(min_k, decision.k_before);
      if (metered()) {
        switch (decision.outcome) {
          case Outcome::kHold:
            instruments_.held->Increment();
            break;
          case Outcome::kApplied:
            instruments_.applied->Increment();
            break;
          case Outcome::kDeferred:
            instruments_.deferred->Increment();
            break;
          case Outcome::kSkipped:
            instruments_.skipped->Increment();
            break;
          case Outcome::kClamped:
            instruments_.clamped->Increment();
            break;
          case Outcome::kFrozen:
            instruments_.frozen->Increment();
            break;
        }
      }
      if (eventlog_ != nullptr && decision.outcome != Outcome::kHold &&
          decision.outcome != Outcome::kFrozen) {
        // One event per acted-on decision. Shape (name, level, fields)
        // depends only on the outcome class — public control state.
        eventlog_->Emit(
            obs::EventLevel::kInfo, "control_decision",
            static_cast<int32_t>(s), /*trace_id=*/0,
            {{"outcome", static_cast<int>(decision.outcome)},
             {"k_before", decision.k_before},
             {"k_target", decision.k_target},
             {"pressure", decision.pressure}});
      }
      if (decision.outcome == Outcome::kClamped) {
        clamped_this_tick = true;
        if (eventlog_ != nullptr) {
          eventlog_->Emit(obs::EventLevel::kWarn, "control_privacy_clamp",
                          static_cast<int32_t>(s), /*trace_id=*/0,
                          {{"c_estimate", decision.c_estimate},
                           {"k_target", decision.k_target}});
        }
      }
    }
  }
  if (metered()) {
    instruments_.ticks->Increment();
    instruments_.block_size_k->Set(static_cast<double>(min_k));
    instruments_.effective_c->Set(worst_c);
    instruments_.headroom->Set(options_.c_bound - worst_c);
    instruments_.pressure->Set(max_pressure);
    instruments_.frozen_gauge->Set(was_frozen ? 1.0 : 0.0);
  }
  if (eventlog_ != nullptr) {
    eventlog_->Emit(obs::EventLevel::kDebug, "control_tick",
                    {{"shards", plant_->shards()},
                     {"worst_c", worst_c},
                     {"max_pressure", max_pressure},
                     {"frozen", was_frozen ? 1 : 0}});
  }
  if (clamped_this_tick && recorder_ != nullptr) {
    // The clamp is the edge the "privacy_clamp" trigger watches; poll
    // immediately so the incident bundle seals with fresh context.
    recorder_->Poll();
  }
}

std::string PrivacyCostController::StatusJson() {
  common::MutexLock lock(mutex_);
  std::string out = "{";
  out += "\"frozen\":" + std::string(frozen_ ? "true" : "false");
  out += ",\"k_min\":" + std::to_string(k_min_);
  out += ",\"k_max\":" + std::to_string(k_max_);
  out += ",\"c_bound\":" + Num(options_.c_bound);
  out += ",\"pressure_high\":" + Num(options_.pressure_high);
  out += ",\"pressure_low\":" + Num(options_.pressure_low);
  out +=
      ",\"ticks\":" + std::to_string(ticks_.load(std::memory_order_relaxed));
  out += ",\"clamps\":" +
         std::to_string(clamps_.load(std::memory_order_relaxed));
  out += ",\"shards\":[";
  for (uint64_t s = 0; s < plant_->shards(); ++s) {
    if (s > 0) {
      out += ',';
    }
    const ShardSignals signals = plant_->Read(s);
    const Result<double> c_theory = core::SecurityParameter::PrivacyOf(
        plant_->disk_slots(s), plant_->cache_pages(s), signals.block_size);
    out += "{\"shard\":" + std::to_string(s);
    out += ",\"k\":" + std::to_string(signals.block_size);
    out += ",\"pending_k\":" + std::to_string(signals.pending_block_size);
    out += ",\"c_theory\":" + Num(c_theory.ok() ? *c_theory : 0.0);
    out += ",\"c_estimate\":" + Num(signals.c_estimate);
    out += ",\"queue_fraction\":" + Num(signals.queue_fraction);
    out += ",\"burn\":" + Num(signals.burn);
    out += ",\"slo_firing\":" +
           std::string(signals.slo_firing ? "true" : "false");
    out += ",\"cooldown\":" + std::to_string(cooldown_[s]);
    out += ",\"ladder\":[";
    for (size_t i = 0; i < ladders_[s].size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += std::to_string(ladders_[s][i]);
    }
    out += "]}";
  }
  out += "],\"decisions\":[";
  bool first = true;
  for (const Decision& d : trail_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"tick\":" + std::to_string(d.tick);
    out += ",\"shard\":" + std::to_string(d.shard);
    out += ",\"outcome\":\"" + std::string(OutcomeName(d.outcome)) + "\"";
    out += ",\"k_before\":" + std::to_string(d.k_before);
    out += ",\"k_target\":" + std::to_string(d.k_target);
    out += ",\"pressure\":" + Num(d.pressure);
    out += ",\"c_estimate\":" + Num(d.c_estimate);
    out += ",\"c_theory\":" + Num(d.c_theory);
    out += ",\"queue_fraction\":" + Num(d.queue_fraction);
    out += ",\"burn\":" + Num(d.burn);
    out += "}";
  }
  out += "]}";
  return out;
}

void PrivacyCostController::EnableMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    instruments_ = Instruments{};
    return;
  }
  instruments_.ticks =
      registry->FindOrCreateCounter("shpir_control_ticks_total");
  instruments_.held =
      registry->FindOrCreateCounter("shpir_control_hold_total");
  instruments_.applied =
      registry->FindOrCreateCounter("shpir_control_applied_total");
  instruments_.deferred =
      registry->FindOrCreateCounter("shpir_control_deferred_total");
  instruments_.skipped =
      registry->FindOrCreateCounter("shpir_control_skipped_total");
  instruments_.clamped =
      registry->FindOrCreateCounter("shpir_control_clamped_total");
  instruments_.frozen =
      registry->FindOrCreateCounter("shpir_control_frozen_total");
  instruments_.block_size_k =
      registry->FindOrCreateGauge("shpir_control_block_size_k");
  instruments_.effective_c =
      registry->FindOrCreateGauge("shpir_control_effective_c");
  instruments_.headroom =
      registry->FindOrCreateGauge("shpir_control_privacy_headroom");
  instruments_.pressure =
      registry->FindOrCreateGauge("shpir_control_pressure");
  instruments_.frozen_gauge =
      registry->FindOrCreateGauge("shpir_control_frozen");
  instruments_.headroom->Set(options_.c_bound);
}

void PrivacyCostController::EnableEventLog(obs::EventLog* log) {
  eventlog_ = log;
}

void PrivacyCostController::EnableTracing(obs::Tracer* tracer) {
  tracer_ = tracer;
}

void PrivacyCostController::EnableFlightRecorder(
    obs::FlightRecorder* recorder) {
  if (recorder != nullptr && recorder != recorder_) {
    recorder->AddTrigger("privacy_clamp", [this] {
      return clamps_.load(std::memory_order_relaxed);
    });
  }
  recorder_ = recorder;
}

std::vector<uint64_t> PrivacyCostController::Ladder(uint64_t shard) const {
  common::MutexLock lock(mutex_);
  if (shard >= ladders_.size()) {
    return {};
  }
  return ladders_[shard];
}

std::vector<PrivacyCostController::Decision> PrivacyCostController::Trail()
    const {
  common::MutexLock lock(mutex_);
  return std::vector<Decision>(trail_.begin(), trail_.end());
}

void RegisterControlDocument(PrivacyCostController* controller,
                             obs::AdminRegistry* registry) {
  registry->AddWithArg(
      "control", [controller](std::string_view arg) -> Result<std::string> {
        constexpr std::string_view kSetBounds = "set-bounds ";
        if (arg == "freeze") {
          controller->Freeze();
        } else if (arg == "unfreeze") {
          controller->Unfreeze();
        } else if (arg.starts_with(kSetBounds)) {
          // "KMIN KMAX": two decimal numbers, one space between them.
          const std::string_view bounds = arg.substr(kSetBounds.size());
          const size_t space = bounds.find(' ');
          uint64_t k_min = 0;
          uint64_t k_max = 0;
          if (space == std::string_view::npos ||
              !obs::ParseAdminNumber(bounds.substr(0, space), &k_min) ||
              !obs::ParseAdminNumber(bounds.substr(space + 1), &k_max)) {
            return InvalidArgumentError(
                "set-bounds takes two decimal bounds: KMIN KMAX");
          }
          SHPIR_RETURN_IF_ERROR(controller->SetBounds(k_min, k_max));
        } else if (!arg.empty()) {
          return InvalidArgumentError(
              "control takes no argument, freeze, unfreeze or "
              "set-bounds KMIN KMAX");
        }
        return controller->StatusJson();
      });
}

}  // namespace shpir::control
