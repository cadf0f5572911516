#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/build_info.h"
#include "common/stats.h"
#include "obs/provenance.h"

namespace muri::obs {

namespace {

enum Kind { kCounter = 0, kGauge = 1, kHistogram = 2, kSummary = 3 };

std::string serialize_labels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    if (!out.empty()) out += ',';
    out += k;
    out += "=\"";
    for (char c : v) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }
  return out;
}

// Joins a base label string with one extra label (le/quantile).
std::string with_label(const std::string& base, const std::string& extra) {
  if (base.empty()) return extra;
  if (extra.empty()) return base;
  return base + "," + extra;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double v) noexcept {
  // First bucket with bound >= v; +Inf bucket otherwise.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

std::int64_t Histogram::count() const noexcept {
  std::int64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

std::int64_t Histogram::bucket_count(std::size_t i) const noexcept {
  return i < counts_.size() ? counts_[i].load(std::memory_order_relaxed) : 0;
}

double Histogram::quantile(double q) const {
  const std::int64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::int64_t in_bucket = counts_[i].load(std::memory_order_relaxed);
    if (static_cast<double>(cum + in_bucket) < rank) {
      cum += in_bucket;
      continue;
    }
    // Interpolate within [lower, upper] of this bucket. The +Inf bucket
    // reports its lower edge (no finite upper bound to interpolate to).
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    if (i >= bounds_.size()) return lower;
    const double upper = bounds_[i];
    if (in_bucket == 0) return upper;
    const double frac = (rank - static_cast<double>(cum)) /
                        static_cast<double>(in_bucket);
    return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

Summary::Summary(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 16)) {}

void Summary::observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  sum_ += v;
  // Same decimation as SeriesRecorder: keep every stride-th sample, and
  // when full drop every other kept sample and double the stride.
  if (seen_ % static_cast<std::int64_t>(stride_) == 0) {
    if (samples_.size() >= capacity_) {
      std::vector<double> kept;
      kept.reserve(samples_.size() / 2 + 1);
      for (std::size_t i = 0; i < samples_.size(); i += 2) {
        kept.push_back(samples_[i]);
      }
      samples_ = std::move(kept);
      stride_ *= 2;
    }
    if (seen_ % static_cast<std::int64_t>(stride_) == 0) {
      samples_.push_back(v);
    }
  }
  ++seen_;
}

std::int64_t Summary::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_;
}

double Summary::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Summary::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_ > 0 ? sum_ / static_cast<double>(seen_) : 0.0;
}

double Summary::percentile(double p) const {
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    samples = samples_;
  }
  return muri::percentile(std::move(samples), p);
}

struct MetricsRegistry::Series {
  std::string name;
  std::string labels;  // serialized
  std::string help;
  int kind = kCounter;
  Counter counter;
  Gauge gauge;
  std::unique_ptr<Histogram> histogram;
  std::unique_ptr<Summary> summary;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Series& MetricsRegistry::get_or_create(
    const std::string& name, const std::string& help, const Labels& labels,
    int kind) {
  const std::string key = serialize_labels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = series_[{name, key}];
  if (slot == nullptr) {
    slot = std::make_unique<Series>();
    slot->name = name;
    slot->labels = key;
    slot->help = help;
    slot->kind = kind;
  }
  assert(slot->kind == kind && "metric name reused with a different kind");
  return *slot;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  return get_or_create(name, help, labels, kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  return get_or_create(name, help, labels, kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> upper_bounds,
                                      const Labels& labels) {
  Series& s = get_or_create(name, help, labels, kHistogram);
  if (s.histogram == nullptr) {
    s.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *s.histogram;
}

Summary& MetricsRegistry::summary(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  Series& s = get_or_create(name, help, labels, kSummary);
  if (s.summary == nullptr) s.summary = std::make_unique<Summary>();
  return *s.summary;
}

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string last_name;
  auto series_line = [&out](const std::string& name, const std::string& suffix,
                            const std::string& labels, double value) {
    out += name;
    out += suffix;
    if (!labels.empty()) {
      out += '{';
      out += labels;
      out += '}';
    }
    out += ' ';
    append_json_double(out, value);
    out += '\n';
  };
  for (const auto& [key, s] : series_) {
    if (s->name != last_name) {
      last_name = s->name;
      out += "# HELP " + s->name + " " + s->help + "\n";
      out += "# TYPE " + s->name + " ";
      switch (s->kind) {
        case kCounter:
          out += "counter\n";
          break;
        case kGauge:
          out += "gauge\n";
          break;
        case kHistogram:
          out += "histogram\n";
          break;
        default:
          out += "summary\n";
      }
    }
    switch (s->kind) {
      case kCounter:
        series_line(s->name, "", s->labels, s->counter.value());
        break;
      case kGauge:
        series_line(s->name, "", s->labels, s->gauge.value());
        break;
      case kHistogram: {
        const Histogram& h = *s->histogram;
        std::int64_t cum = 0;
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          cum += h.bucket_count(i);
          std::string le = "le=\"";
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%g", h.upper_bounds()[i]);
          le += buf;
          le += '"';
          series_line(s->name, "_bucket", with_label(s->labels, le),
                      static_cast<double>(cum));
        }
        cum += h.bucket_count(h.upper_bounds().size());
        series_line(s->name, "_bucket", with_label(s->labels, "le=\"+Inf\""),
                    static_cast<double>(cum));
        series_line(s->name, "_sum", s->labels, h.sum());
        series_line(s->name, "_count", s->labels,
                    static_cast<double>(h.count()));
        break;
      }
      default: {
        const Summary& sm = *s->summary;
        for (const double q : {0.5, 0.9, 0.99}) {
          char buf[48];
          std::snprintf(buf, sizeof(buf), "quantile=\"%g\"", q);
          series_line(s->name, "", with_label(s->labels, buf),
                      sm.percentile(q * 100.0));
        }
        series_line(s->name, "_sum", s->labels, sm.sum());
        series_line(s->name, "_count", s->labels,
                    static_cast<double>(sm.count()));
      }
    }
  }
  return out;
}

std::string MetricsRegistry::json_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& [key, s] : series_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += s->name;
    if (!s->labels.empty()) {
      out += '{';
      append_json_escaped(out, s->labels);
      out += '}';
    }
    out += "\":";
    switch (s->kind) {
      case kCounter:
        append_json_double(out, s->counter.value());
        break;
      case kGauge:
        append_json_double(out, s->gauge.value());
        break;
      case kHistogram: {
        const Histogram& h = *s->histogram;
        out += "{\"count\":";
        append_json_double(out, static_cast<double>(h.count()));
        out += ",\"sum\":";
        append_json_double(out, h.sum());
        out += ",\"p50\":";
        append_json_double(out, h.quantile(0.5));
        out += ",\"p99\":";
        append_json_double(out, h.quantile(0.99));
        out += '}';
        break;
      }
      default: {
        const Summary& sm = *s->summary;
        out += "{\"count\":";
        append_json_double(out, static_cast<double>(sm.count()));
        out += ",\"sum\":";
        append_json_double(out, sm.sum());
        out += ",\"p50\":";
        append_json_double(out, sm.percentile(50));
        out += ",\"p99\":";
        append_json_double(out, sm.percentile(99));
        out += '}';
      }
    }
  }
  out += '}';
  return out;
}

bool MetricsRegistry::write_prometheus(const std::string& path) const {
  const std::string text = prometheus_text();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

void export_build_info(MetricsRegistry& registry) {
  registry
      .gauge("muri_build_info", "Build identity; value is always 1.",
             {{"version", build_version()}, {"git_sha", build_git_sha()}})
      .set(1.0);
  registry
      .gauge("muri_process_uptime_seconds",
             "Wall seconds since process start.")
      .set(process_uptime_seconds());
}

}  // namespace muri::obs
