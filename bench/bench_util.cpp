#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/flags.h"
#include "common/logging.h"
#include "obs/http_exporter.h"

namespace muri::bench {

namespace {

// Process-wide obs sinks (set up once by init_obs, torn down at exit).
// Simulations drive the tracer into the manual (sim-time) domain, so the
// exported trace shows the schedule on the simulated timeline.
struct ObsState {
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::HttpExporter> exporter;
  std::unique_ptr<obs::DecisionLog> decisions;
  std::string trace_path;
  std::string metrics_path;
  std::string decisions_path;
};

ObsState& obs_state() {
  static ObsState state;
  return state;
}

void flush_obs() {
  ObsState& state = obs_state();
  // Tear down anything that references the sinks before the files are
  // written: the log hook holds the tracer, the exporter serves the
  // registry; both must be gone before state's members can die.
  obs::attach_log_tracer(nullptr);
  if (state.exporter != nullptr) state.exporter->stop();
  if (state.tracer != nullptr && !state.trace_path.empty()) {
    if (state.tracer->write_json(state.trace_path)) {
      std::fprintf(stderr, "wrote trace to %s (%zu events, %lld dropped)\n",
                   state.trace_path.c_str(), state.tracer->recorded(),
                   static_cast<long long>(state.tracer->dropped()));
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   state.trace_path.c_str());
    }
  }
  if (state.metrics != nullptr) {
    // Refresh muri_process_uptime_seconds so the written snapshot carries
    // the run's duration, not the near-zero value set at init.
    obs::export_build_info(*state.metrics);
  }
  if (state.metrics != nullptr && !state.metrics_path.empty()) {
    if (state.metrics->write_prometheus(state.metrics_path)) {
      std::fprintf(stderr, "wrote metrics to %s\n",
                   state.metrics_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   state.metrics_path.c_str());
    }
  }
  if (state.decisions != nullptr && !state.decisions_path.empty()) {
    if (state.decisions->write_jsonl(state.decisions_path)) {
      std::fprintf(stderr, "wrote decision log to %s (%lld records)\n",
                   state.decisions_path.c_str(),
                   static_cast<long long>(state.decisions->records()));
    } else {
      std::fprintf(stderr, "failed to write decision log to %s\n",
                   state.decisions_path.c_str());
    }
  }
}

}  // namespace

void init_obs(int argc, const char* const* argv) {
  Flags flags(argc, argv);
  ObsState& state = obs_state();

  const std::string level_text = flags.get("log-level");
  if (!level_text.empty()) {
    LogLevel level = LogLevel::kWarn;
    if (parse_log_level(level_text, level)) {
      set_log_level(level);
    } else {
      std::fprintf(stderr,
                   "ignoring unknown --log-level '%s' "
                   "(use debug|info|warn|error|off)\n",
                   level_text.c_str());
    }
  }

  state.trace_path = flags.get("trace-out");
  state.metrics_path = flags.get("metrics-out");
  state.decisions_path = flags.get("decisions-out");
  const bool serve_metrics = flags.has("metrics-port");
  if (!state.trace_path.empty()) {
    state.tracer = std::make_unique<obs::Tracer>();
    state.tracer->set_enabled(true);
    // Warnings/errors land on the trace timeline next to the spans that
    // explain them.
    obs::attach_log_tracer(state.tracer.get());
  }
  if (!state.metrics_path.empty() || serve_metrics) {
    state.metrics = std::make_unique<obs::MetricsRegistry>();
    // Every metrics surface identifies its build (muri_build_info,
    // muri_process_uptime_seconds) so scraped dashboards can tell runs
    // apart.
    obs::export_build_info(*state.metrics);
  }
  if (!state.decisions_path.empty()) {
    state.decisions = std::make_unique<obs::DecisionLog>();
  }
  if (serve_metrics) {
    state.exporter = std::make_unique<obs::HttpExporter>(*state.metrics);
    std::string error;
    // Port 0 asks the kernel for an ephemeral port (printed below).
    if (state.exporter->start(flags.get_int("metrics-port", 0), &error)) {
      std::fprintf(stderr, "serving metrics on http://127.0.0.1:%d/metrics\n",
                   state.exporter->port());
    } else {
      // The user explicitly asked for a live endpoint; running on without
      // one would look like success to whatever is scraping it. Exit
      // non-zero so the caller (or CI step) sees the failure.
      std::fprintf(stderr, "failed to start metrics exporter: %s\n",
                   error.c_str());
      std::exit(1);
    }
  }
  if (state.tracer != nullptr || state.metrics != nullptr ||
      state.decisions != nullptr) {
    std::atexit(flush_obs);
  }
  // The benches that call init_obs take no other flags.
  warn_unread(flags);
}

obs::Tracer* obs_tracer() { return obs_state().tracer.get(); }

obs::MetricsRegistry* obs_metrics() { return obs_state().metrics.get(); }

obs::DecisionLog* obs_decisions() { return obs_state().decisions.get(); }

SimOptions default_sim_options(bool durations_known) {
  SimOptions opt;
  opt.cluster.num_machines = 8;
  opt.cluster.gpus_per_machine = 8;
  opt.durations_known = durations_known;
  opt.tracer = obs_tracer();
  opt.metrics = obs_metrics();
  opt.decisions = obs_decisions();
  return opt;
}

namespace {
// Attaches the process-wide decision log (when installed) so every
// scheduler logs provenance even when driven outside run_simulation.
std::unique_ptr<Scheduler> with_obs(std::unique_ptr<Scheduler> s) {
  s->set_decision_log(obs_decisions());
  return s;
}
}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  if (name == "FIFO") return with_obs(std::make_unique<FifoScheduler>());
  if (name == "SRTF") return with_obs(std::make_unique<SrtfScheduler>());
  if (name == "SRSF") return with_obs(std::make_unique<SrsfScheduler>());
  if (name == "Tiresias") return with_obs(std::make_unique<TiresiasScheduler>());
  if (name == "Themis") return with_obs(std::make_unique<ThemisScheduler>());
  if (name == "AntMan") return with_obs(std::make_unique<AntManScheduler>());

  if (name.rfind("Muri", 0) == 0) {
    MuriOptions opt;
    opt.durations_known = name.rfind("Muri-S", 0) == 0;
    // Suffixes after "Muri-S"/"Muri-L": "-2"/"-3"/"-4" (max group size),
    // "-worstorder", "-noblossom", "-nobucket".
    if (name.find("-2") != std::string::npos) opt.max_group_size = 2;
    if (name.find("-3") != std::string::npos) opt.max_group_size = 3;
    if (name.find("-worstorder") != std::string::npos) {
      opt.ordering = OrderingPolicy::kWorst;
    }
    if (name.find("-noblossom") != std::string::npos) opt.use_blossom = false;
    if (name.find("-nobucket") != std::string::npos) opt.bucket_by_gpu = false;
    opt.trace = obs_tracer();
    opt.metrics = obs_metrics();
    opt.decisions = obs_decisions();
    return std::make_unique<MuriScheduler>(opt);
  }
  throw std::invalid_argument("unknown scheduler: " + name);
}

std::vector<SimResult> run_all(const Trace& trace,
                               const std::vector<std::string>& scheduler_names,
                               const SimOptions& options) {
  std::vector<SimResult> results;
  results.reserve(scheduler_names.size());
  for (const std::string& name : scheduler_names) {
    auto scheduler = make_scheduler(name);
    results.push_back(run_simulation(trace, *scheduler, options));
  }
  return results;
}

namespace {
const SimResult& find_result(const std::vector<SimResult>& results,
                             const std::string& name) {
  for (const SimResult& r : results) {
    if (r.scheduler_name == name) return r;
  }
  throw std::invalid_argument("reference scheduler not found: " + name);
}
}  // namespace

void print_normalized_table(const std::string& title,
                            const std::vector<SimResult>& results,
                            const std::string& reference) {
  const SimResult& ref = find_result(results, reference);
  std::printf("%s (normalized to %s; >1 means %s is better)\n", title.c_str(),
              reference.c_str(), reference.c_str());
  std::printf("  %-24s %12s %12s %12s\n", "scheduler", "norm JCT",
              "norm makespan", "norm p99 JCT");
  for (const SimResult& r : results) {
    std::printf("  %-24s %12.2f %12.2f %12.2f\n", r.scheduler_name.c_str(),
                ref.avg_jct > 0 ? r.avg_jct / ref.avg_jct : 0.0,
                ref.makespan > 0 ? r.makespan / ref.makespan : 0.0,
                ref.p99_jct > 0 ? r.p99_jct / ref.p99_jct : 0.0);
  }
}

void print_raw_table(const std::vector<SimResult>& results) {
  std::printf("  %-24s %10s %10s %10s %8s %8s %6s %6s %7s %7s\n",
              "scheduler", "avg JCT", "p99 JCT", "makespan", "queue",
              "block", "width", "rate", "g-pred", "g-real");
  for (const SimResult& r : results) {
    std::printf("  %-24s %10s %10s %10s %8.1f %8.2f %6.2f %6.2f %7.3f %7.3f\n",
                r.scheduler_name.c_str(), fmt_duration(r.avg_jct).c_str(),
                fmt_duration(r.p99_jct).c_str(),
                fmt_duration(r.makespan).c_str(), r.avg_queue_length,
                r.avg_blocking_index, r.avg_group_width,
                r.avg_normalized_rate, r.avg_group_gamma_predicted,
                r.avg_group_gamma_realized);
  }
}

std::string fmt_duration(double seconds) {
  char buf[32];
  if (seconds < 120) {
    std::snprintf(buf, sizeof(buf), "%.0fs", seconds);
  } else if (seconds < 3 * 3600) {
    std::snprintf(buf, sizeof(buf), "%.1fm", seconds / 60);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fh", seconds / 3600);
  }
  return buf;
}

}  // namespace muri::bench
