#include "obs/timeseries.h"

#include <algorithm>

#include "common/stats.h"
#include "obs/provenance.h"

namespace muri::obs {

TimeSeries::TimeSeries(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void TimeSeries::append(double t, double v) {
  ring_[head_] = Point{t, v};
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
  ++appended_;
}

std::vector<TimeSeries::Point> TimeSeries::window(double now,
                                                  double window_s) const {
  std::vector<Point> out;
  if (size_ == 0) return out;
  const double cutoff = window_s > 0 ? now - window_s : ring_[0].time;
  const std::size_t oldest = (head_ + capacity_ - size_) % capacity_;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const Point& p = ring_[(oldest + i) % capacity_];
    if (window_s > 0 && p.time < cutoff) continue;
    out.push_back(p);
  }
  return out;
}

WindowStats TimeSeries::stats(double now, double window_s) const {
  WindowStats ws;
  const std::vector<Point> pts = window(now, window_s);
  if (pts.empty()) return ws;
  std::vector<double> values;
  values.reserve(pts.size());
  for (const Point& p : pts) values.push_back(p.value);
  ws.count = static_cast<std::int64_t>(values.size());
  ws.min = min_of(values);
  ws.max = max_of(values);
  ws.avg = mean(values);
  ws.p50 = percentile(values, 50.0);
  ws.p90 = percentile(values, 90.0);
  ws.p99 = percentile(values, 99.0);
  ws.last = pts.back().value;
  ws.first_time = pts.front().time;
  ws.last_time = pts.back().time;
  return ws;
}

TimeSeriesStore::TimeSeriesStore(std::size_t capacity_per_series)
    : capacity_(capacity_per_series == 0 ? 1 : capacity_per_series) {}

TimeSeriesStore::Entry& TimeSeriesStore::entry_locked(
    const std::string& name) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, Entry(capacity_)).first;
  }
  return it->second;
}

void TimeSeriesStore::add_probe(const std::string& name, ProbeKind kind,
                                Probe probe) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry_locked(name);
  e.kind = kind;
  e.probe = std::move(probe);
  probe_order_.push_back(name);
}

void TimeSeriesStore::append(const std::string& name, double t, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  entry_locked(name).series.append(t, v);
}

void TimeSeriesStore::sample(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& name : probe_order_) {
    Entry& e = series_.find(name)->second;
    if (!e.probe) continue;
    const double raw = e.probe();
    if (e.kind == ProbeKind::kGauge) {
      e.series.append(now, raw);
      continue;
    }
    // kRate: the first reading only seeds the diff base.
    if (e.has_prev && now > e.prev_time) {
      e.series.append(now, (raw - e.prev_raw) / (now - e.prev_time));
    }
    e.has_prev = true;
    e.prev_raw = raw;
    e.prev_time = now;
  }
  ++samples_;
  last_sample_time_ = now;
}

std::size_t TimeSeriesStore::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

double TimeSeriesStore::last_sample_time() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_sample_time_;
}

std::vector<std::string> TimeSeriesStore::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, entry] : series_) out.push_back(name);
  return out;
}

bool TimeSeriesStore::has_series(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.count(name) > 0;
}

WindowStats TimeSeriesStore::stats(const std::string& name, double now,
                                   double window_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) return WindowStats{};
  return it->second.series.stats(now, window_s);
}

std::vector<TimeSeries::Point> TimeSeriesStore::points(
    const std::string& name, double now, double window_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) return {};
  return it->second.series.window(now, window_s);
}

std::string TimeSeriesStore::history_json(double now, double window_s,
                                          bool include_points) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"now\":";
  append_json_double(out, now);
  out += ",\"window_s\":";
  append_json_double(out, window_s);
  out += ",\"samples\":";
  append_json_double(out, static_cast<double>(samples_));
  out += ",\"capacity_per_series\":";
  append_json_double(out, static_cast<double>(capacity_));
  out += ",\"series\":{";
  bool first = true;
  for (const auto& [name, entry] : series_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\":{";
    const WindowStats ws = entry.series.stats(now, window_s);
    out += "\"count\":";
    append_json_double(out, static_cast<double>(ws.count));
    out += ",\"min\":";
    append_json_double(out, ws.min);
    out += ",\"max\":";
    append_json_double(out, ws.max);
    out += ",\"avg\":";
    append_json_double(out, ws.avg);
    out += ",\"p50\":";
    append_json_double(out, ws.p50);
    out += ",\"p90\":";
    append_json_double(out, ws.p90);
    out += ",\"p99\":";
    append_json_double(out, ws.p99);
    out += ",\"last\":";
    append_json_double(out, ws.last);
    if (include_points) {
      out += ",\"points\":[";
      const auto pts = entry.series.window(now, window_s);
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (i) out += ',';
        out += '[';
        append_json_double(out, pts[i].time);
        out += ',';
        append_json_double(out, pts[i].value);
        out += ']';
      }
      out += ']';
    }
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace muri::obs
