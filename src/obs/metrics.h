// Metrics registry — the "count it" half of src/obs.
//
// Named, labeled counters / gauges / fixed-bucket histograms / sample
// summaries with a Prometheus-style text exposition and a JSON snapshot.
// Handles returned by the registry are stable for the registry's lifetime
// and safe to update from any thread: scalar metrics are single atomics,
// histograms are per-bucket atomics, and summaries take a short mutex.
// Asking for the same (name, labels) twice returns the same metric, so
// independent modules can share a series without coordination.
//
// Summaries keep raw samples (bounded) and export quantiles through the
// percentile helpers in common/stats.h — the same math the bench tables
// use, so a p99 in a metrics dump matches a p99 in a table.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace muri::obs {

// Label set attached to a series, e.g. {{"scheduler", "Muri-L"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
// fetch_add for doubles via CAS: portable to toolchains whose
// atomic<double> lacks native fetch_add, and exactly as deterministic as
// the single-writer sequences we use it in.
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

// Monotonically increasing value (event counts, accumulated seconds).
class Counter {
 public:
  void inc(double delta = 1.0) noexcept { detail::atomic_add(value_, delta); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0};
};

// Instantaneous value (queue length, active groups).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept { detail::atomic_add(value_, delta); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0};
};

// Upper bounds, in seconds, of every scheduling-round phase histogram
// (muri_sched_phase_seconds, muri_daemon_round_phase_seconds): powers of
// ten from sub-100µs sorts to multi-second contended matchings.
inline const std::vector<double> kRoundPhaseBounds{1e-5, 1e-4, 1e-3, 1e-2,
                                                   0.1,  1.0,  10.0};

// Fixed-bucket histogram. Buckets are the Prometheus convention: an
// observation lands in the first bucket whose upper bound is >= the value
// (`le`, less-or-equal edges), with an implicit +Inf bucket at the end.
class Histogram {
 public:
  // `upper_bounds` must be strictly increasing; the +Inf bucket is
  // appended automatically.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  std::int64_t count() const noexcept;
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
  // Non-cumulative count of bucket i (i == bounds().size() is +Inf).
  std::int64_t bucket_count(std::size_t i) const noexcept;

  // Quantile estimate (q in [0,1]) by linear interpolation inside the
  // bucket containing the target rank; returns 0 with no observations.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;  // bounds_.size() + 1
  std::atomic<double> sum_{0};
};

// Raw-sample summary with exact quantiles via common/stats.h. Bounded:
// past `capacity` samples it keeps every k-th one (k doubling), like
// SeriesRecorder, so long runs cannot grow it without bound.
class Summary {
 public:
  explicit Summary(std::size_t capacity = 4096);

  void observe(double v);

  std::int64_t count() const;
  double sum() const;
  double mean() const;
  // p in [0, 100], matching common/stats.h percentile().
  double percentile(double p) const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::size_t stride_ = 1;
  std::int64_t seen_ = 0;
  double sum_ = 0;
  std::vector<double> samples_;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create. `help` is recorded on first creation; a metric name
  // must keep one kind for the registry's lifetime (asserted).
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upper_bounds,
                       const Labels& labels = {});
  Summary& summary(const std::string& name, const std::string& help,
                   const Labels& labels = {});

  // Prometheus text exposition format (# HELP / # TYPE / series lines).
  // Histograms expand to _bucket{le=...}/_sum/_count; summaries to
  // {quantile=...}/_sum/_count. Series are sorted by (name, labels), so
  // the output is deterministic for a given metric state.
  std::string prometheus_text() const;

  // One JSON object keyed by series id, for machine-readable dumps.
  std::string json_snapshot() const;

  bool write_prometheus(const std::string& path) const;

 private:
  struct Series;
  Series& get_or_create(const std::string& name, const std::string& help,
                        const Labels& labels, int kind);

  mutable std::mutex mu_;
  // (name, serialized labels) -> series; std::map keeps export order
  // deterministic.
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Series>>
      series_;
};

// Registers the process-identity series every exporting binary shares:
// muri_build_info (constant 1, version/git_sha labels from
// common/build_info.h) and muri_process_uptime_seconds. Refreshes the
// uptime gauge on every call, so call it again just before exporting.
void export_build_info(MetricsRegistry& registry);

}  // namespace muri::obs
