// Discrete-event cluster simulator (§6.1 "Simulator").
//
// The paper validates its simulator against the 64-GPU testbed at <3%
// metric error and uses it for all large-trace results; this is our
// testbed substitute (DESIGN.md §2). run_simulation is a driver over the
// execution engine (sim/engine.h) that the live daemon runs too: it
// submits trace arrivals, advances the engine to the earliest of the next
// arrival, the engine's next event (completion, job fault, machine event)
// and the scheduling interval, and runs a round whenever the queue
// changed or jobs wait. The engine places each plan on the cluster in
// plan order and runs every group under the execution model of
// DESIGN.md §5 (sim/exec_model.h):
//
//  - exclusive job:      per-iteration wall time = Σ_r t^r;
//  - interleaved group:  max-min fair fluid rates (sim/fluid.h) with
//                        demand inflation (1 + α(p-1)) for residual
//                        cross-stage contention (§6.2's explanation of
//                        sub-4× speedups), times the ordering penalty
//                        T_chosen/T_best (Fig. 6/11), times a cascade
//                        factor for mixed-GPU groups (Fig. 7);
//  - uncoordinated:      the same fluid model with the larger interference
//                        inflation (1+β) and no coordination benefit (the
//                        §2.1 GPU-sharing example).
//
// Preempted or regrouped jobs pay a restart penalty (§5 terminates and
// restarts jobs on plan changes).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/stats.h"
#include "common/types.h"
#include "fault/fault.h"
#include "fault/monitor.h"
#include "job/trace.h"
#include "profiler/profiler.h"
#include "scheduler/scheduler.h"
#include "sim/exec_model.h"

namespace muri::obs {
class DecisionLog;
class JobTraceLog;
class MetricsRegistry;
class Tracer;
}  // namespace muri::obs

namespace muri {

// Options of one simulation, and of the execution engine (sim/engine.h),
// which reads everything here except schedule_interval and max_time.
struct SimOptions {
  ClusterSpec cluster{};
  // Scheduling round interval (§5 uses six minutes).
  Duration schedule_interval = 360;
  // Cost of (re)starting a job whose group or admission changed.
  Duration restart_penalty = 30;
  // Execution-model knobs (sim/exec_model.h documents each): interleave
  // overhead, γ and mis-planning penalties, uncoordinated interference,
  // mixed-GPU cascade and per-resource contention.
  ExecModelParams exec{};
  // Fault injection (§3/§5: the executor reports faults and the job is
  // pushed back to the queue). Mean time between failures per *running
  // job* in hours; 0 disables. Progress is checkpointed at iteration
  // granularity, so a fault costs the requeue wait plus the restart
  // penalty, not lost work. Each job draws its fault times from its own
  // RNG substream of fault_seed, so editing the trace never reshuffles
  // other jobs' fault times.
  double mtbf_hours = 0;
  std::uint64_t fault_seed = 1337;
  // Machine-level fault domains: crash/recover (per-machine exponential
  // MTBF/MTTR) and transient straggler windows (per-resource slowdown).
  // A crashed machine evicts and requeues every resident job; surviving
  // members of an interleaved group that lost a member to a *job* fault
  // continue immediately as a re-planned degraded group. All processes
  // default off (zero rates): behavior is then identical to a fault-free
  // run.
  FaultInjectorOptions machine_faults{};
  // Worker-monitor policy: blacklist threshold and recovery probation.
  WorkerMonitorOptions monitor{};
  ResourceProfiler::Options profiler{};
  // Whether JobView::remaining_time is populated (Muri-S/SRTF/SRSF runs).
  bool durations_known = false;
  // Record time series (queue length, blocking index, utilization).
  bool record_series = false;
  // Safety stop; 0 disables. Jobs unfinished at the stop are dropped from
  // JCT statistics and reported in `unfinished_jobs`.
  Time max_time = 0;
  // Observability hooks (src/obs), both optional. `tracer` is driven in
  // the simulated-time clock domain (the run exports a Chrome trace with
  // per-machine tracks: job run spans, preemptions, fault windows,
  // scheduling rounds); it observes the simulation without perturbing it,
  // so results with and without tracing are bit-identical. The fault
  // counters in SimResult are accumulated through `metrics` (or a private
  // registry when null), making them scrapeable mid-run; SimResult reads
  // the per-run deltas back out at finalize.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Decision provenance sink (src/obs/provenance): the simulator records
  // the outcome side of every plan — placements with machines chosen,
  // skipped groups with cause, preempt/restart/evict/fault events, and
  // degraded-group continuations — stamped with the scheduler's round id.
  // The same sink is also attached to the scheduler (set_decision_log) by
  // the engine, so one log carries both halves of a round's story.
  // Null (the default) disables all of it; SimResult is bit-identical
  // either way.
  obs::DecisionLog* decisions = nullptr;
  // Per-job causal span recorder (src/obs/jobtrace): submit → round
  // verdicts → placement/restart → preempt/evict/fault/degraded/straggler
  // → finish, attributed into wait buckets that sum to the realized JCT.
  // Null (the default) disables it; attaching never perturbs SimResult,
  // the decision log, or the trace — the same obs bit-identity contract.
  obs::JobTraceLog* jobtrace = nullptr;
};

// Per-job completion-time decomposition (the "JCT breakdown" of the
// utilization analytics): JCT = queueing + running + restart overhead.
// Queueing is time arrived-but-unplaced, running is placed-and-progressing,
// restart overhead is placed-but-stalled inside a restart penalty window.
struct JctBreakdown {
  JobId job = kInvalidJob;
  double jct_seconds = 0;
  double queueing_seconds = 0;
  double running_seconds = 0;
  double restart_overhead_seconds = 0;
  // Times the job lost a placement it had (preempt + machine eviction);
  // job-level faults are counted separately in SimResult::faults.
  int preemptions = 0;
};

struct SimResult {
  std::string scheduler_name;
  std::string trace_name;

  // Headline metrics (Tables 4-5, Figures 9-10).
  double avg_jct = 0;
  double p99_jct = 0;
  double makespan = 0;

  // Detailed metrics (Fig. 8).
  double avg_queue_length = 0;
  double avg_blocking_index = 0;
  std::array<double, kNumResources> avg_utilization{};

  // Per-job completion times, aligned with finished job ids.
  std::vector<double> jcts;
  int finished_jobs = 0;
  int unfinished_jobs = 0;

  // Time series (populated when record_series).
  std::vector<SeriesRecorder::Point> queue_series;
  std::vector<SeriesRecorder::Point> blocking_series;
  std::array<std::vector<SeriesRecorder::Point>, kNumResources> util_series;

  // Execution-shape diagnostics (time-weighted averages while any job is
  // in the system).
  double avg_running_jobs = 0;
  double avg_group_width = 0;   // members per running group
  double avg_normalized_rate = 0;  // x = solo_iter_time / period

  // Interleaving-efficiency accounting. "Predicted" is the schedule-time γ
  // of Eq. 4 (best-case rotation efficiency, time-weighted over running
  // multi-job groups; previously named `avg_group_gamma`). "Realized" is
  // reconstructed from execution: per group incarnation, busy seconds per
  // resource divided by the group's wall window, averaged over the
  // resources the group actually uses — the same averaging as
  // interleave/group_efficiency — then weighted by window length across
  // retired multi-member groups. The fluid execution model is
  // work-conserving, so on noise-free timings realized γ matches predicted
  // γ to within a few percent (it can exceed it: the rotation schedule
  // quantizes to stage boundaries, the fluid model does not).
  double avg_group_gamma_predicted = 0;
  double avg_group_gamma_realized = 0;
  // Window-weighted mean of (realized − predicted) over retired groups.
  double avg_group_gamma_error = 0;

  // Realized busy seconds per resource summed over machines (the totals
  // behind the `muri_resource_busy_seconds` counters).
  std::array<double, kNumResources> resource_busy_seconds{};

  // Per finished job, in completion order (aligned with `jcts`).
  std::vector<JctBreakdown> jct_breakdown;

  // Fault injection accounting.
  std::int64_t faults = 0;
  // Number of times a running job was restarted because its group or
  // placement changed (preemption/regrouping churn).
  std::int64_t restarts = 0;
  // Machine fault-domain accounting.
  std::int64_t machine_failures = 0;   // machine-down events observed
  std::int64_t evictions = 0;          // jobs requeued by machine crashes
  double straggler_seconds = 0;        // job-seconds run at slowdown > 1
  double degraded_group_seconds = 0;   // job-seconds run in a degraded group

  // Accounting.
  std::int64_t scheduler_invocations = 0;
  double scheduler_wall_ms = 0;  // real time spent inside schedule()
  int profiler_sessions = 0;
  Duration profiling_time = 0;
};

// The deterministic slice of a SimResult as one JSON object (no trailing
// newline), doubles printed round-trip exact: every field a fixed seed
// reproduces bit for bit. Wall-clock fields (scheduler_wall_ms) and the
// opt-in time series are left out. Equivalence benches and golden tests
// compare these strings.
std::string result_fingerprint(const SimResult& result);

// Runs `scheduler` over `trace` and returns the collected metrics.
// The scheduler object may carry state across rounds (AntMan does); pass a
// fresh instance per run.
SimResult run_simulation(const Trace& trace, Scheduler& scheduler,
                         const SimOptions& options);

}  // namespace muri
