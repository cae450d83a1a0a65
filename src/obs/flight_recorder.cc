#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <utility>

#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace shpir::obs {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string RenderIncidentJson(const FlightRecorder::Incident& incident) {
  std::ostringstream out;
  out << "{\"id\":" << incident.id << ",\"sealed_ns\":" << incident.sealed_ns
      << ",\"reason\":\"" << EscapeJsonString(incident.reason)
      << "\",\"trigger_value\":" << incident.trigger_value
      << ",\"config\":\"" << EscapeJsonString(incident.config_fingerprint)
      << "\",\"shape\":\"" << EscapeJsonString(incident.shape)
      << "\",\"events\":" << incident.events_json
      << ",\"spans\":" << incident.spans_json
      << ",\"metrics\":" << incident.metrics_json
      << ",\"profile_collapsed\":\""
      << EscapeJsonString(incident.profile_collapsed) << "\"}";
  return out.str();
}

}  // namespace

FlightRecorder::FlightRecorder(const Options& options) : options_(options) {
  if (options_.spill_dir.empty()) {
    const char* env = std::getenv("SHPIR_INCIDENT_DIR");
    if (env != nullptr && env[0] != '\0') {
      options_.spill_dir = env;
    }
  }
  if (options_.max_incidents == 0) {
    options_.max_incidents = 1;
  }
}

void FlightRecorder::SetConfigFingerprint(std::string fingerprint) {
  common::MutexLock lock(mutex_);
  config_fingerprint_ = std::move(fingerprint);
}

void FlightRecorder::AddTrigger(const char* reason,
                                std::function<uint64_t()> counter) {
  TriggerSource source;
  source.reason = reason;
  source.counter = std::move(counter);
  source.last_value = source.counter ? source.counter() : 0;
  common::MutexLock lock(mutex_);
  triggers_.push_back(std::move(source));
}

size_t FlightRecorder::Poll() {
  polls_.fetch_add(1, std::memory_order_relaxed);
  const char* fire_reason = nullptr;
  uint64_t fire_value = 0;
  std::string fingerprint;
  {
    common::MutexLock lock(mutex_);
    const uint64_t now = NowNs();
    for (TriggerSource& trigger : triggers_) {
      if (!trigger.counter) {
        continue;
      }
      const uint64_t value = trigger.counter();
      const bool edge = value > trigger.last_value;
      trigger.last_value = value;
      if (!edge || fire_reason != nullptr) {
        continue;
      }
      if (last_seal_ns_.has_value() &&
          now - *last_seal_ns_ < options_.min_interval_ns) {
        debounced_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      fire_reason = trigger.reason;
      fire_value = value;
    }
    if (fire_reason != nullptr) {
      fingerprint = config_fingerprint_;
    }
  }
  if (fire_reason == nullptr) {
    return 0;
  }
  Store(Capture(fire_reason, fire_value, fingerprint));
  return 1;
}

uint64_t FlightRecorder::Trigger(const char* reason) {
  std::string fingerprint;
  {
    common::MutexLock lock(mutex_);
    fingerprint = config_fingerprint_;
  }
  return Store(Capture(reason, 0, fingerprint));
}

FlightRecorder::Incident FlightRecorder::Capture(
    const char* reason, uint64_t trigger_value,
    const std::string& fingerprint) const {
  Incident incident;
  incident.sealed_ns = NowNs();
  incident.reason = reason;
  incident.trigger_value = trigger_value;
  incident.config_fingerprint = fingerprint;

  // The shape digest aggregates only the secret-independent views of
  // each surface: event shapes, span/stack/metric NAMES — no values,
  // no timings, no counts.
  std::string shape = "reason:";
  shape += reason;
  shape += '\n';

  if (eventlog_ != nullptr) {
    incident.events_json = EventLogJson(*eventlog_);
    shape += EventShape(eventlog_->Snapshot());
  } else {
    incident.events_json = "{}";
  }

  if (tracer_ != nullptr) {
    const std::vector<SpanRecord> spans = tracer_->Snapshot();
    incident.spans_json = ToChromeTraceJson(spans);
    std::set<std::string> names;
    for (const SpanRecord& span : spans) {
      names.insert(span.name);
    }
    for (const std::string& name : names) {
      shape += "span:";
      shape += name;
      shape += '\n';
    }
  } else {
    incident.spans_json = "{}";
  }

  if (metrics_ != nullptr) {
    const MetricsSnapshot snapshot = metrics_->Snapshot();
    incident.metrics_json = ToJson(snapshot);
    for (const SnapshotCounter& c : snapshot.counters) {
      shape += "metric:" + c.name + '\n';
    }
    for (const SnapshotGauge& g : snapshot.gauges) {
      shape += "metric:" + g.name + '\n';
    }
    for (const SnapshotHistogram& h : snapshot.histograms) {
      shape += "metric:" + h.name + '\n';
    }
  } else {
    incident.metrics_json = "{}";
  }

  if (profiler_ != nullptr) {
    incident.profile_collapsed = profiler_->ToCollapsed();
    for (const Profiler::StackSample& sample : profiler_->Snapshot()) {
      shape += "stack:" + sample.stack + '\n';
    }
  }

  incident.shape = std::move(shape);
  return incident;
}

uint64_t FlightRecorder::Store(Incident incident) {
  {
    common::MutexLock lock(mutex_);
    incident.id = next_id_++;
    last_seal_ns_ = incident.sealed_ns;
    incidents_.push_back(incident);
    while (incidents_.size() > options_.max_incidents) {
      incidents_.pop_front();
    }
  }
  sealed_.fetch_add(1, std::memory_order_relaxed);
  Spill(incident);
  return incident.id;
}

void FlightRecorder::Spill(const Incident& incident) const {
  if (options_.spill_dir.empty()) {
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.spill_dir, ec);
  const std::string path = options_.spill_dir + "/incident_" +
                           std::to_string(incident.id) + ".json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return;  // Spilling is best-effort; the in-memory store is truth.
  }
  const std::string json = RenderIncidentJson(incident);
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
}

std::vector<FlightRecorder::Incident> FlightRecorder::List() const {
  common::MutexLock lock(mutex_);
  return std::vector<Incident>(incidents_.begin(), incidents_.end());
}

std::string FlightRecorder::ListJson() const {
  std::ostringstream out;
  out << "{\"sealed\":" << sealed() << ",\"debounced\":" << debounced()
      << ",\"incidents\":[";
  bool first = true;
  for (const Incident& incident : List()) {
    if (!first) {
      out << ',';
    }
    first = false;
    out << "{\"id\":" << incident.id << ",\"sealed_ns\":"
        << incident.sealed_ns << ",\"reason\":\""
        << EscapeJsonString(incident.reason) << "\",\"trigger_value\":"
        << incident.trigger_value << "}";
  }
  out << "]}";
  return out.str();
}

std::string FlightRecorder::ShowJson(uint64_t id) const {
  Incident incident;
  bool found = false;
  {
    common::MutexLock lock(mutex_);
    for (const Incident& stored : incidents_) {
      if (stored.id == id) {
        incident = stored;
        found = true;
        break;
      }
    }
  }
  if (!found) {
    return "";
  }
  return RenderIncidentJson(incident);
}

void FlightRecorder::PublishMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    return;
  }
  registry->RegisterCallbackGauge(
      "shpir_incident_sealed_total",
      [this] { return static_cast<double>(sealed()); });
  registry->RegisterCallbackGauge(
      "shpir_incident_debounced_total",
      [this] { return static_cast<double>(debounced()); });
  registry->RegisterCallbackGauge(
      "shpir_incident_polls_total",
      [this] { return static_cast<double>(polls()); });
  registry->RegisterCallbackGauge("shpir_incident_stored", [this] {
    common::MutexLock lock(mutex_);
    return static_cast<double>(incidents_.size());
  });
}

}  // namespace shpir::obs
