#include "obs/slo.h"

#include "obs/metrics.h"
#include "obs/provenance.h"

namespace muri::obs {

SloTracker::SloTracker(const SloConfig& cfg, MetricsRegistry* registry)
    : window_s_(cfg.window_s > 0 ? cfg.window_s : 60.0),
      registry_(registry) {
  auto add = [&](const char* name, double threshold, Reduce reduce) {
    if (threshold < 0) return;
    Entry e;
    e.state.name = name;
    e.state.threshold = threshold;
    e.state.reduce = reduce;
    entries_.push_back(std::move(e));
  };
  add("queue_wait_s", cfg.queue_wait_p99_s, Reduce::kP99);
  add("round_latency_s", cfg.round_latency_p99_s, Reduce::kP99);
  add("wal_fsync_s", cfg.fsync_max_s, Reduce::kMax);
  add("loop_stall_s", cfg.loop_stall_max_s, Reduce::kMax);
}

void SloTracker::observe(const std::string& target, double t, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.state.name == target) {
      e.samples.append(t, v);
      return;
    }
  }
}

void SloTracker::evaluate_locked(double now) {
  for (Entry& e : entries_) {
    const WindowStats ws = e.samples.stats(now, window_s_);
    e.state.samples = ws.count;
    if (ws.count == 0) {
      // No data in window: the target is not being missed, but keep the
      // violating latch only until evidence clears it — an empty window
      // *is* evidence of recovery for event-driven series.
      e.state.value = 0;
      e.state.burn_rate = 0;
      e.state.violating = false;
    } else {
      e.state.value =
          e.state.reduce == Reduce::kP99 ? ws.p99 : ws.max;
      e.state.burn_rate =
          e.state.threshold > 0 ? e.state.value / e.state.threshold : 0;
      const bool violating = e.state.value > e.state.threshold;
      if (violating && !e.state.violating) ++e.state.violations;
      e.state.violating = violating;
    }
    if (registry_) {
      const Labels labels{{"target", e.state.name}};
      auto& violations = registry_->counter(
          "muri_slo_violations_total",
          "SLO ok->violating transitions per target.", labels);
      const double delta =
          static_cast<double>(e.state.violations) - violations.value();
      if (delta > 0) violations.inc(delta);
      registry_
          ->gauge("muri_slo_burn_rate",
                  "Observed value / threshold per SLO target.", labels)
          .set(e.state.burn_rate);
      registry_
          ->gauge("muri_slo_violating",
                  "1 when the SLO target is currently violated.", labels)
          .set(e.state.violating ? 1.0 : 0.0);
    }
  }
}

void SloTracker::evaluate(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  evaluate_locked(now);
}

std::vector<SloTracker::TargetState> SloTracker::targets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TargetState> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.state);
  return out;
}

bool SloTracker::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !entries_.empty();
}

bool SloTracker::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.state.violating) return false;
  }
  return true;
}

std::string SloTracker::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Entry& e : entries_) {
    if (!e.state.violating) continue;
    if (!out.empty()) out += ',';
    out += e.state.name;
  }
  return out;
}

std::int64_t SloTracker::violations_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const Entry& e : entries_) total += e.state.violations;
  return total;
}

std::string SloTracker::json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"enabled\":";
  out += entries_.empty() ? "false" : "true";
  bool violating = false;
  for (const Entry& e : entries_) violating = violating || e.state.violating;
  out += ",\"status\":\"";
  out += violating ? "violating" : "ok";
  out += "\",\"window_s\":";
  append_json_double(out, window_s_);
  out += ",\"targets\":[";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const TargetState& s = entries_[i].state;
    if (i) out += ',';
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"reduce\":\"";
    out += s.reduce == Reduce::kP99 ? "p99" : "max";
    out += "\",\"threshold\":";
    append_json_double(out, s.threshold);
    out += ",\"value\":";
    append_json_double(out, s.value);
    out += ",\"burn_rate\":";
    append_json_double(out, s.burn_rate);
    out += ",\"violating\":";
    out += s.violating ? "true" : "false";
    out += ",\"violations\":";
    append_json_double(out, static_cast<double>(s.violations));
    out += ",\"samples\":";
    append_json_double(out, static_cast<double>(s.samples));
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace muri::obs
