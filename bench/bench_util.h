// Shared helpers for the per-table/figure bench binaries.
//
// Every bench regenerates one table or figure from the paper: it builds
// the workload, runs the schedulers through the simulator (or the live
// executor), and prints the same rows/series the paper reports, with
// metrics normalized the way the paper normalizes them (baseline / Muri,
// so larger = Muri wins by that factor).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "scheduler/baselines.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

namespace muri::bench {

// Shared observability plumbing: call once at the top of main(). Parses
// the common flags
//
//   --trace-out=<path>     dump a Chrome trace_event JSON of every run
//   --metrics-out=<path>   dump a Prometheus text metrics snapshot
//   --decisions-out=<path> dump the decision-provenance JSONL (one record
//                          per scheduling choice; see obs/provenance.h)
//   --metrics-port=<p>    serve live Prometheus text at
//                         http://127.0.0.1:<p>/metrics (and JSON at
//                         /metrics.json) for the life of the process;
//                         port 0 picks an ephemeral port (printed to
//                         stderr)
//   --log-level=<l>       debug|info|warn|error|off (default warn)
//
// and, when any sink flag is given, installs a process-wide tracer /
// metrics registry / decision log that default_sim_options() and
// make_scheduler() attach to every simulation and scheduler automatically — so each bench
// binary gets schedule dumps without per-binary plumbing. With a tracer
// installed, MURI_LOG warnings/errors are mirrored onto the trace
// timeline. Files are written at normal process exit. With no flags,
// both accessors stay null and nothing is recorded. Every other flag is
// reported as unused on stderr (warn_unread): a bench that calls
// init_obs takes no flags of its own.
void init_obs(int argc, const char* const* argv);

// The process-wide sinks installed by init_obs (null when unset). Exposed
// so a bench that drives the live executor can pass the tracer along.
obs::Tracer* obs_tracer();
obs::MetricsRegistry* obs_metrics();
obs::DecisionLog* obs_decisions();

// The evaluation cluster: 8 machines × 8 GPUs (§6.1). Carries the
// init_obs() sinks when they are installed.
SimOptions default_sim_options(bool durations_known);

// Fresh scheduler instances by canonical name: "FIFO", "SRTF", "SRSF",
// "Tiresias", "Themis", "AntMan", "Muri-S", "Muri-L". Muri variants accept
// the MuriOptions overrides below. Throws std::invalid_argument on an
// unknown name.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

// Runs `scheduler_names` over `trace` (fresh scheduler per run) and
// returns the results in order.
std::vector<SimResult> run_all(const Trace& trace,
                               const std::vector<std::string>& scheduler_names,
                               const SimOptions& options);

// Prints a Table 4/5-style block: normalized JCT / makespan / 99th %-ile
// JCT of every result relative to the result named `reference`
// (baseline ÷ reference, so the reference row prints 1.00).
void print_normalized_table(const std::string& title,
                            const std::vector<SimResult>& results,
                            const std::string& reference);

// Prints raw metrics for every result (absolute seconds), for the
// EXPERIMENTS.md record.
void print_raw_table(const std::vector<SimResult>& results);

// Formats seconds as a compact human-readable duration ("3.2h").
std::string fmt_duration(double seconds);

}  // namespace muri::bench
