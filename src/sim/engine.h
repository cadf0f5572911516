// ExecutionEngine — the one steppable execution core (DESIGN.md §5 and
// "Service architecture").
//
// The engine owns everything that happens to a job between its submission
// and its end: the id-indexed job table, progress under the restart gate,
// placement of the scheduler's plan (sim/exec_model periods), job faults,
// machine crash/recover and straggler windows (src/fault), degraded
// continuation of groups that lost a member, the per-incarnation group
// accounts behind realized γ, and the tracer / DecisionLog hooks (the
// per-job timelines are a fold of the DecisionLog, src/obs/jobtrace). It
// never decides *when* anything happens; two drivers do:
//
//   run_simulation (sim/simulator.cpp)  submits trace arrivals and jumps
//                                       between events of a closed trace;
//   MuriDaemon (service/daemon.cpp)     submits HTTP jobs and advances on a
//                                       live or manual clock.
//
// Each step is a separate call so that each driver keeps its own order of
// events at one instant (the simulator: progress, arrivals, settle, round;
// the daemon: progress and settle, submits, round):
//
//   progress_to(t)     runs every placed job forward to t without crossing
//                      an event (t <= next_event_time());
//   settle()           handles what is due at now(): machine events, job
//                      faults, completions;
//   run_round()        one scheduling round at now(): start-deadline
//                      cancels, scheduler call, placement, wait verdicts.
//
// Lifecycle records (arrival/sim_start/sim_end, job_submit/job_restore/
// daemon_start) stay with the drivers. The engine is not thread-safe; the
// daemon serializes every call under its own mutex.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "fault/fault.h"
#include "fault/monitor.h"
#include "job/job.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "profiler/profiler.h"
#include "scheduler/scheduler.h"
#include "sim/simulator.h"

namespace muri {

enum class JobPhase : std::uint8_t {
  kAbsent,     // no job was submitted under this id
  kQueued,     // submitted, waiting for a placement
  kRunning,    // placed, progressing (or inside a restart-penalty window)
  kFinished,
  kCancelled,
};

const char* to_string(JobPhase phase) noexcept;

// Snapshot of one job for the daemon's API (GET /jobs, GET /jobs/<id>).
struct JobStatus {
  JobId id = kInvalidJob;
  JobPhase phase = JobPhase::kQueued;
  ModelKind model = ModelKind::kResNet18;
  std::string name;
  int num_gpus = 1;
  std::int64_t iterations = 0;
  double done_iterations = 0;
  Time submit_time = 0;
  // Time of the first placement; < 0 while never scheduled.
  Time first_scheduled = -1;
  // Completion/cancel time; < 0 while in flight.
  Time end_time = -1;
  int preemptions = 0;
};

// Observational callbacks (the daemon's live SLO plane). Fire-and-forget:
// implementations must not call back into the engine. Null is a no-op and
// attaching an observer never changes plans, records, or traces.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  // A job received its first placement `wait_s` seconds after submission.
  virtual void on_first_schedule(Time /*now*/, double /*wait_s*/) {}
  // A job finished with completion time `jct_s`.
  virtual void on_job_finish(Time /*now*/, double /*jct_s*/) {}
  // One run_round() completed: wall seconds inside the scheduler vs. wall
  // seconds placing the plan and classifying the waiters.
  virtual void on_round(Time /*now*/, double /*schedule_s*/,
                        double /*place_s*/) {}
};

class ExecutionEngine {
 public:
  // `start` is the engine clock's origin (the first arrival, or the
  // daemon's simulated base time). `options` supplies the cluster, the
  // execution model, restart penalty, fault processes and obs hooks; the
  // driver-level fields (schedule_interval, max_time) are not read.
  // `first_id` is the lowest id submit() will be given: the job table
  // starts there, so a restarted daemon whose ids start high does not
  // allocate for the ids below them.
  ExecutionEngine(Scheduler& scheduler, const SimOptions& options,
                  Time start, EngineObserver* observer = nullptr,
                  JobId first_id = 0);

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  // Admits `job` at now() (ids must be fresh). Its JCT counts from
  // job.submit_time, its queueing from now(); `done_iterations` restores
  // checkpointed progress.
  // `name` and `deadline_s` (start deadline, 0 = none) serve the daemon.
  void submit(const Job& job, std::string name = {}, double deadline_s = 0,
              double done_iterations = 0);

  // Cancels a queued or running job at time `at` (the daemon's clock may
  // run ahead of now() between steps). False if unknown or already
  // finished/cancelled. Writes a job_cancel record with `reason`.
  bool cancel(JobId id, Time at, const char* reason);

  Time now() const noexcept { return now_; }
  // The earliest instant something happens without outside input: a
  // completion, a job fault, a machine event or a probation end (infinity
  // when none is pending).
  Time next_event_time() const;
  // Progresses placed jobs from now() to `t` (t >= now()).
  void progress_to(Time t);
  // Handles machine events, job faults and completions due at now().
  // True if any job left the running set or a machine changed state.
  bool settle();
  // One scheduling round at now().
  void run_round();

  // True when the queue changed since the last round (submit, finish,
  // cancel, fault, eviction, capacity returning). Displacements by a round
  // do not set it, so a round never re-triggers itself.
  bool dirty() const noexcept { return queue_changed_; }

  int active_jobs() const noexcept { return active_; }
  int running_jobs() const noexcept { return running_; }
  int queued_jobs() const noexcept { return active_ - running_; }
  std::int64_t finished_jobs() const noexcept { return finished_; }
  std::int64_t rounds_run() const noexcept { return rounds_; }
  const Cluster& cluster() const noexcept { return cluster_; }

  std::vector<JobStatus> list_jobs() const;
  bool job_status(JobId id, JobStatus& out) const;
  // One job_progress record per unfinished job with progress, so a
  // restart resumes iterations instead of replaying them.
  void checkpoint_progress();

  // Simulator metrics: recomputes cluster utilization (and the tracer's
  // busy counters) after the running set changed, and samples the
  // time-weighted averages at now().
  void refresh_utilization();
  void observe_metrics();
  // Ends the run at `end` (>= now(), without progressing jobs): closes
  // open trace spans and fills every SimResult field the engine owns.
  void finalize(Time end, SimResult& result);

 private:
  // "The same running configuration"; jobs whose key changes between
  // rounds pay the restart penalty.
  struct GroupKey {
    std::vector<JobId> members;  // sorted
    GroupMode mode = GroupMode::kExclusive;
    int num_gpus = 0;
    bool operator==(const GroupKey& other) const = default;
  };

  // Utilization account for one group incarnation: an uninterrupted
  // placement of one member set under one key. Busy seconds accumulate as
  // members progress; realized γ is busy/active-window averaged over the
  // resources the group uses (the interleave/group_efficiency averaging).
  struct GroupAccount {
    MachineId machine = kInvalidMachine;  // home machine
    int size = 0;
    GroupMode mode = GroupMode::kExclusive;
    bool degraded = false;
    double gamma_predicted = 0;
    Time window_start = 0;
    Time window_end = 0;
    // Members share one restart gate; wall time before it is stall,
    // excluded from the γ denominator.
    Time ready_at = 0;
    std::array<double, kNumResources> busy{};
    std::array<bool, kNumResources> active{};
  };

  struct JobState {
    Job job;
    IterationProfile measured;
    JobPhase phase = JobPhase::kAbsent;
    std::string name;
    double deadline_s = 0;
    double done_iterations = 0;
    double attained_gpu_seconds = 0;
    Time admitted = 0;              // when the engine received the job
    bool waited = false;            // time passed while it was queued
    Duration ran_wall = 0;          // wall seconds spent placed
    Duration restart_overhead = 0;  // placed-but-stalled (restart gate)
    int preemptions = 0;            // placements lost to preempt/eviction
    Time ready_at = 0;              // progress gate after (re)start
    Duration period = 0;            // wall seconds per iteration
    Time next_fault = 0;            // failure while running (kInf = none)
    double group_gamma = 0;         // best-case γ of the current group
    GroupKey key;
    OwnerId owner = kNoOwner;       // GPU-set owner of the current group
    double straggler_factor = 1.0;  // period inflation from stragglers
    bool degraded = false;          // group lost a member mid-round
    std::int64_t group_id = -1;     // current incarnation (-1 = none)
    GroupAccount* acct = nullptr;
    Time first_scheduled = -1;
    Time end_time = -1;
    std::int64_t placed_round = 0;  // rounds_ of the last placement
    // Open run-stage trace span (kNoTime = none) and its machine track.
    Time run_since = kNoTime;
    MachineId run_machine = kInvalidMachine;
    // Fault times, one draw per placement: the job's own substream of
    // fault_seed, so editing the trace never reshuffles other jobs'.
    Mt64Substream fault_stream;

    Duration remaining_solo() const {
      return (static_cast<double>(job.iterations) - done_iterations) *
             job.profile.iteration_time();
    }
  };

  // A placed group: which jobs share which machines (maps machine faults
  // back to resident jobs).
  struct RunningGroup {
    std::vector<JobId> members;
    GroupMode mode = GroupMode::kExclusive;
    int num_gpus = 0;
    std::vector<MachineId> machines;
  };

  JobState* find(JobId id);
  const JobState* find(JobId id) const;
  // The table slot of `id` (first_id_ <= id), found or not.
  size_t index(JobId id) const { return static_cast<size_t>(id - first_id_); }
  JobState& slot(JobId id) { return jobs_[index(id)]; }
  const JobState& slot(JobId id) const { return jobs_[index(id)]; }
  static bool is_live(const JobState& s) {
    return s.phase == JobPhase::kQueued || s.phase == JobPhase::kRunning;
  }
  // Drops ids that finished or were cancelled since the last prune. Never
  // called inside a loop over live_: those loops check the phase instead.
  void prune_live();
  Time projected_finish(const JobState& s) const;
  double straggler_factor_for(const Job& job,
                              const std::vector<MachineId>& machines) const;
  // Takes a placed job off its GPUs into phase `to` (span closed,
  // execution state reset, marked in the scheduler's delta).
  void leave_running(JobState& s, JobPhase to);
  // Drops `id` from its running group and returns the group, or null once
  // it emptied (and was erased, its GPUs released if asked).
  RunningGroup* leave_group(OwnerId owner, JobId id, bool release_if_empty);
  static GroupKey make_key(const std::vector<JobId>& members, GroupMode mode,
                           int num_gpus);
  // Opens the account of a new incarnation at now(); its id is the new
  // group_seq_.
  GroupAccount* open_account(const std::vector<JobId>& members,
                             MachineId home, GroupMode mode,
                             double gamma_predicted, Time ready_at);
  void place(const std::vector<PlannedGroup>& plan);
  void replan_degraded(RunningGroup& g);
  void refresh_straggler_factors();
  void handle_machine_event(const FaultEvent& e);
  void fail_job(JobState& s);
  void finish_job(JobState& s);

  // Trace helpers (no-ops without a tracer).
  void end_run_span(JobState& s);
  void begin_run_span(JobState& s, MachineId machine);
  void job_instant(const JobState& s, const char* name);
  void emit_busy_counters();
  void close_fault_window(std::vector<Time>& since, MachineId m,
                          const char* name, obs::TraceArgs args = {});

  Scheduler& scheduler_;
  const SimOptions options_;
  EngineObserver* const observer_;
  Cluster cluster_;
  ResourceProfiler profiler_;
  const double fault_rate_;
  FaultInjector injector_;
  WorkerMonitor monitor_;

  const JobId first_id_;
  std::vector<JobState> jobs_;  // indexed by JobId - first_id_
  // Ids of the queued and running jobs, ascending. Every per-step loop
  // walks this list instead of jobs_, so a step costs the live jobs, not
  // every job ever submitted; id order fixes the order of float sums and
  // records. It may hold ended ids until the next prune_live().
  std::vector<JobId> live_;
  bool live_stale_ = false;
  // observe_metrics scratch: (group id, width) of each running job.
  std::vector<std::pair<std::int64_t, int>> seen_groups_;
  std::map<OwnerId, RunningGroup> running_groups_;
  std::vector<ResourceVector> machine_slow_;
  std::int64_t group_seq_ = 0;
  std::map<std::int64_t, GroupAccount> group_accounts_;

  Time now_ = 0;
  int active_ = 0;
  int running_ = 0;
  std::int64_t finished_ = 0;
  std::int64_t rounds_ = 0;
  double scheduler_wall_ms_ = 0;
  bool queue_changed_ = false;  // see dirty()

  // Metrics: counters flow through the caller's registry (or a private
  // one) and are read back as per-run deltas at finalize.
  obs::MetricsRegistry private_registry_;
  obs::MetricsRegistry& registry_;
  obs::Counter& c_faults_;
  obs::Counter& c_restarts_;
  obs::Counter& c_machine_failures_;
  obs::Counter& c_evictions_;
  obs::Counter& c_straggler_seconds_;
  obs::Counter& c_degraded_seconds_;
  obs::Counter& c_preempt_displaced_;
  obs::Counter& c_preempt_machine_;
  obs::Summary& s_job_queueing_;
  obs::Summary& s_job_running_;
  obs::Summary& s_job_restart_overhead_;
  obs::Summary& s_job_preemptions_;
  std::vector<std::array<obs::Counter*, kNumResources>> c_busy_;
  std::array<double, kNumResources> busy_total_{};
  std::array<double, 6> counter_base_{};

  std::vector<double> jcts_;
  std::vector<JctBreakdown> breakdowns_;
  std::array<double, kNumResources> utilization_{};
  TimeWeightedAverage queue_avg_;
  TimeWeightedAverage blocking_avg_;
  TimeWeightedAverage running_avg_;
  TimeWeightedAverage width_avg_;
  TimeWeightedAverage rate_avg_;
  TimeWeightedAverage gamma_avg_;
  std::array<TimeWeightedAverage, kNumResources> util_avg_;
  SeriesRecorder queue_series_;
  SeriesRecorder blocking_series_;
  std::array<SeriesRecorder, kNumResources> util_series_;

  // Tracing: run epoch and open fault windows per machine.
  double run_epoch_ = 0;
  std::vector<Time> machine_down_since_;
  std::vector<Time> machine_straggler_since_;
};

}  // namespace muri
