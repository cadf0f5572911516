#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>

#include "obs/jobtrace.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "sim/exec_model.h"

namespace muri {

namespace {

// A job is done when its remaining iterations round to nothing.
constexpr double kIterEps = 1e-6;
constexpr double kInf = std::numeric_limits<double>::infinity();

const char* mode_name(GroupMode m) {
  switch (m) {
    case GroupMode::kExclusive:
      return "exclusive";
    case GroupMode::kInterleaved:
      return "interleaved";
    case GroupMode::kUncoordinated:
      return "uncoordinated";
  }
  return "uncoordinated";
}

std::int64_t to_us(Time t) { return static_cast<std::int64_t>(t * 1e6); }

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* to_string(JobPhase phase) noexcept {
  switch (phase) {
    case JobPhase::kAbsent:
      return "absent";
    case JobPhase::kQueued:
      return "queued";
    case JobPhase::kRunning:
      return "running";
    case JobPhase::kFinished:
      return "finished";
    case JobPhase::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

ExecutionEngine::ExecutionEngine(Scheduler& scheduler,
                                 const SimOptions& options, Time start,
                                 EngineObserver* observer, JobId first_id)
    : scheduler_(scheduler),
      options_(options),
      observer_(observer),
      cluster_(options.cluster),
      profiler_(options.profiler),
      fault_rate_(options.mtbf_hours > 0
                      ? 1.0 / (options.mtbf_hours * 3600.0)
                      : 0.0),
      injector_(options.cluster.num_machines, options.machine_faults, start),
      monitor_(options.cluster.num_machines, options.monitor),
      first_id_(first_id),
      machine_slow_(static_cast<size_t>(options.cluster.num_machines),
                    ResourceVector{1.0, 1.0, 1.0, 1.0}),
      now_(start),
      registry_(options.metrics != nullptr ? *options.metrics
                                           : private_registry_),
      c_faults_(registry_.counter("muri_sim_job_faults_total",
                                  "Job-level faults reported to the scheduler")),
      c_restarts_(registry_.counter(
          "muri_sim_restarts_total",
          "Running jobs restarted by a group or placement change")),
      c_machine_failures_(registry_.counter("muri_sim_machine_failures_total",
                                            "Machine-down events observed")),
      c_evictions_(registry_.counter("muri_sim_evictions_total",
                                     "Jobs requeued by machine crashes")),
      c_straggler_seconds_(
          registry_.counter("muri_sim_straggler_seconds_total",
                            "Job-seconds run at straggler slowdown > 1")),
      c_degraded_seconds_(
          registry_.counter("muri_sim_degraded_group_seconds_total",
                            "Job-seconds run in a degraded group")),
      // Decision counters by cause, mirroring the provenance log's preempt/
      // evict records onto /metrics (whether or not a log is attached).
      c_preempt_displaced_(registry_.counter(
          "muri_decision_preemptions_total", "Preemptions by cause",
          {{"reason", "displaced"}})),
      c_preempt_machine_(registry_.counter("muri_decision_preemptions_total",
                                           "Preemptions by cause",
                                           {{"reason", "machine_down"}})),
      s_job_queueing_(registry_.summary(
          "muri_job_queueing_seconds",
          "Per-job wall seconds arrived but unplaced")),
      s_job_running_(registry_.summary(
          "muri_job_running_seconds",
          "Per-job wall seconds placed and progressing")),
      s_job_restart_overhead_(registry_.summary(
          "muri_job_restart_overhead_seconds",
          "Per-job wall seconds placed but stalled in a restart gate")),
      s_job_preemptions_(registry_.summary(
          "muri_job_preemptions",
          "Per-job placements lost to preemption or eviction")),
      machine_down_since_(static_cast<size_t>(options.cluster.num_machines),
                          kNoTime),
      machine_straggler_since_(
          static_cast<size_t>(options.cluster.num_machines), kNoTime) {
  // Realized per-resource busy seconds, attributed to the home machine of
  // the group that used them. SimResult totals come from busy_total_, so a
  // registry shared across runs never leaks seconds between results.
  c_busy_.resize(static_cast<size_t>(options.cluster.num_machines));
  for (int m = 0; m < options.cluster.num_machines; ++m) {
    for (int r = 0; r < kNumResources; ++r) {
      c_busy_[static_cast<size_t>(m)][static_cast<size_t>(r)] =
          &registry_.counter(
              "muri_resource_busy_seconds",
              "Realized busy seconds per home machine and resource",
              {{"machine", std::to_string(m)},
               {"resource",
                std::string(to_string(static_cast<Resource>(r)))}});
    }
  }
  counter_base_ = {c_faults_.value(),           c_restarts_.value(),
                   c_machine_failures_.value(), c_evictions_.value(),
                   c_straggler_seconds_.value(), c_degraded_seconds_.value()};

  // The decision log carries both halves of a round: the scheduler's
  // reasoning and the engine's outcome records — unless the caller wired
  // a log of their own into the scheduler, which then wins.
  if (options_.decisions != nullptr &&
      scheduler_.decision_log() == nullptr) {
    scheduler_.set_decision_log(options_.decisions);
  }
  // Simulated-time trace: one track per machine (run spans, fault
  // windows) plus the scheduler track. Several runs may share one tracer;
  // the epoch separates their overlapping windows and reused ids.
  if (obs::Tracer* tracer = options_.tracer; tracer != nullptr) {
    run_epoch_ = static_cast<double>(tracer->begin_run_epoch());
    tracer->set_manual_seconds(now_);
    tracer->name_track(obs::kSchedulerTrack, "scheduler");
    for (int m = 0; m < options.cluster.num_machines; ++m) {
      tracer->name_track(obs::machine_track(m),
                         "machine " + std::to_string(m));
    }
  }
}

ExecutionEngine::JobState* ExecutionEngine::find(JobId id) {
  if (id < first_id_ || index(id) >= jobs_.size()) return nullptr;
  JobState& s = slot(id);
  return s.phase == JobPhase::kAbsent ? nullptr : &s;
}

const ExecutionEngine::JobState* ExecutionEngine::find(JobId id) const {
  return const_cast<ExecutionEngine*>(this)->find(id);
}

void ExecutionEngine::prune_live() {
  if (!live_stale_) return;
  std::erase_if(live_, [this](JobId id) { return !is_live(slot(id)); });
  live_stale_ = false;
}

// ---------------------------------------------------------------------------
// Job table.

void ExecutionEngine::submit(const Job& job, std::string name,
                             double deadline_s, double done_iterations) {
  assert(job.id >= first_id_);
  if (index(job.id) >= jobs_.size()) jobs_.resize(index(job.id) + 1);
  JobState& s = slot(job.id);
  s.job = job;
  s.measured = profiler_.profile(job);
  s.phase = JobPhase::kQueued;
  s.admitted = now_;
  s.name = std::move(name);
  s.deadline_s = deadline_s;
  s.done_iterations =
      std::min(done_iterations, static_cast<double>(job.iterations));
  s.fault_stream = Mt64Substream(substream_seed(
      options_.fault_seed, static_cast<std::uint64_t>(job.id)));
  // Arrival order need not be id order (trace ties, daemon restores).
  live_.insert(std::lower_bound(live_.begin(), live_.end(), job.id), job.id);
  ++active_;
  job_instant(s, "submit");
  queue_changed_ = true;
}

bool ExecutionEngine::cancel(JobId id, Time at, const char* reason) {
  JobState* s = find(id);
  if (s == nullptr || (s->phase != JobPhase::kQueued &&
                       s->phase != JobPhase::kRunning)) {
    return false;
  }
  // A cancelled member simply stops; its partners keep their periods until
  // the round this cancel triggers re-plans them (the rule for the
  // partners of a finished member).
  if (s->phase == JobPhase::kRunning) {
    leave_group(s->owner, id, /*release_if_empty=*/false);
    leave_running(*s, JobPhase::kCancelled);
  }
  s->phase = JobPhase::kCancelled;
  s->end_time = at;
  live_stale_ = true;
  --active_;
  queue_changed_ = true;
  if (options_.decisions != nullptr) {
    options_.decisions->entry("job_cancel")
        .num("t", at)
        .integer("job", id)
        .str("reason", reason);
  }
  return true;
}

std::vector<JobStatus> ExecutionEngine::list_jobs() const {
  std::vector<JobStatus> out;
  for (const JobState& s : jobs_) {
    JobStatus st;
    if (job_status(s.job.id, st)) out.push_back(std::move(st));
  }
  return out;
}

bool ExecutionEngine::job_status(JobId id, JobStatus& out) const {
  const JobState* s = find(id);
  if (s == nullptr) return false;
  out.id = s->job.id;
  out.phase = s->phase;
  out.model = s->job.model;
  out.name = s->name;
  out.num_gpus = s->job.num_gpus;
  out.iterations = s->job.iterations;
  out.done_iterations = s->done_iterations;
  out.submit_time = s->job.submit_time;
  out.first_scheduled = s->first_scheduled;
  out.end_time = s->end_time;
  out.preemptions = s->preemptions;
  return true;
}

void ExecutionEngine::checkpoint_progress() {
  if (options_.decisions == nullptr) return;
  for (JobId id : live_) {
    const JobState& s = slot(id);
    if (!is_live(s) || s.done_iterations <= 0) continue;
    options_.decisions->entry("job_progress")
        .num("t", now_)
        .integer("job", s.job.id)
        .num("done", s.done_iterations);
  }
}

// ---------------------------------------------------------------------------
// Time.

Time ExecutionEngine::projected_finish(const JobState& s) const {
  if (s.phase != JobPhase::kRunning || s.period <= 0) return kInf;
  const double remaining =
      static_cast<double>(s.job.iterations) - s.done_iterations;
  if (remaining <= kIterEps) return now_;
  return std::max(now_, s.ready_at) +
         remaining * s.period * s.straggler_factor;
}

Time ExecutionEngine::next_event_time() const {
  Time next = kInf;
  for (JobId id : live_) {
    const JobState& s = slot(id);
    if (s.phase != JobPhase::kRunning) continue;
    next = std::min(next, projected_finish(s));
    if (fault_rate_ > 0) next = std::min(next, s.next_fault);
  }
  return std::min({next, injector_.next_time(),
                   monitor_.next_probation_end()});
}

void ExecutionEngine::progress_to(Time t) {
  if (t <= now_) return;
  prune_live();
  const Duration dt = t - now_;
  for (JobId id : live_) {
    JobState& s = slot(id);
    if (s.phase == JobPhase::kQueued) s.waited = true;
    if (s.phase != JobPhase::kRunning) continue;
    s.ran_wall += dt;
    const Time start = std::max(now_, s.ready_at);
    const Duration effective = t > start && s.period > 0 ? t - start : 0.0;
    s.restart_overhead += dt - effective;
    if (effective > 0) {
      s.done_iterations =
          std::min(s.done_iterations +
                       effective / (s.period * s.straggler_factor),
                   static_cast<double>(s.job.iterations));
      s.attained_gpu_seconds +=
          effective * static_cast<double>(s.job.num_gpus);
      if (s.straggler_factor > 1.0) c_straggler_seconds_.inc(effective);
      if (s.degraded) c_degraded_seconds_.inc(effective);
      // Realized busy attribution: at 1/(period·straggler) iterations per
      // second the job occupies resource r for t^r seconds per iteration,
      // credited to the group account and the home machine's counters.
      if (s.acct != nullptr && std::isfinite(s.period)) {
        const double iters = effective / (s.period * s.straggler_factor);
        size_t m = s.acct->machine >= 0 ? static_cast<size_t>(s.acct->machine)
                                        : 0;
        if (m >= c_busy_.size()) m = 0;
        for (int r = 0; r < kNumResources; ++r) {
          const auto ri = static_cast<size_t>(r);
          const double db = iters * s.job.profile.stage_time[ri];
          if (db <= 0) continue;
          s.acct->busy[ri] += db;
          busy_total_[ri] += db;
          c_busy_[m][ri]->inc(db);
        }
      }
    }
    if (s.acct != nullptr) s.acct->window_end = t;
  }
  now_ = t;
  if (options_.tracer != nullptr) options_.tracer->set_manual_seconds(now_);
}

bool ExecutionEngine::settle() {
  prune_live();
  bool changed = false;
  // Machine fault domains: crashes evict and requeue every resident job;
  // repairs return the machine unless the monitor holds it on probation;
  // straggler windows inflate the periods of resident jobs.
  if (injector_.enabled()) {
    for (const FaultEvent& e : injector_.pop_until(now_)) {
      handle_machine_event(e);
      changed = true;
    }
    for (MachineId m : monitor_.end_probation(now_)) {
      cluster_.set_machine_available(m, true);
      queue_changed_ = true;
      changed = true;
    }
  }
  // Job faults: the executor reports the failure and the job goes back to
  // the queue (progress checkpointed at iteration granularity); surviving
  // group members continue as a re-planned degraded group.
  if (fault_rate_ > 0) {
    for (JobId id : live_) {
      JobState& s = slot(id);
      if (s.phase == JobPhase::kRunning && now_ >= s.next_fault &&
          s.done_iterations <
              static_cast<double>(s.job.iterations) - kIterEps) {
        fail_job(s);
        changed = true;
      }
    }
  }
  for (JobId id : live_) {
    JobState& s = slot(id);
    if (s.phase == JobPhase::kRunning &&
        s.done_iterations >=
            static_cast<double>(s.job.iterations) - kIterEps) {
      finish_job(s);
      changed = true;
    }
  }
  prune_live();
  return changed;
}

void ExecutionEngine::leave_running(JobState& s, JobPhase to) {
  end_run_span(s);
  s.period = 0;
  s.owner = kNoOwner;
  s.next_fault = kInf;
  s.straggler_factor = 1.0;
  s.degraded = false;
  s.group_id = -1;
  s.acct = nullptr;
  s.phase = to;
  --running_;
}

ExecutionEngine::RunningGroup* ExecutionEngine::leave_group(
    OwnerId owner, JobId id, bool release_if_empty) {
  if (owner < 1 || static_cast<size_t>(owner) > running_groups_.size()) {
    return nullptr;
  }
  RunningGroup& g = running_groups_[static_cast<size_t>(owner - 1)];
  if (g.members.empty()) return nullptr;
  g.members.erase(std::remove(g.members.begin(), g.members.end(), id),
                  g.members.end());
  if (!g.members.empty()) return &g;
  if (release_if_empty) cluster_.release(owner);
  return nullptr;
}

void ExecutionEngine::finish_job(JobState& s) {
  const JobId id = s.job.id;
  job_instant(s, "finish");
  // Leave the group registry so a later crash or partner fault no longer
  // involves this job.
  leave_group(s.owner, id, /*release_if_empty=*/false);
  leave_running(s, JobPhase::kFinished);
  s.end_time = now_;
  live_stale_ = true;
  --active_;
  ++finished_;
  JctBreakdown b;
  b.job = id;
  b.jct_seconds = now_ - s.job.submit_time;
  b.restart_overhead_seconds = s.restart_overhead;
  b.running_seconds = s.ran_wall - s.restart_overhead;
  // Queueing runs from admission to the engine: a daemon job's wait in
  // the admission queue before the event loop drains it is part of its
  // JCT but not of this breakdown (simulator arrivals are admitted at
  // their submit time). A job that never waited queued for exactly zero
  // seconds; the derivation would leave float residue there.
  b.queueing_seconds =
      s.waited ? std::max((now_ - s.admitted) - s.ran_wall, 0.0) : 0.0;
  b.preemptions = s.preemptions;
  jcts_.push_back(b.jct_seconds);
  breakdowns_.push_back(b);
  s_job_queueing_.observe(b.queueing_seconds);
  s_job_running_.observe(b.running_seconds);
  s_job_restart_overhead_.observe(b.restart_overhead_seconds);
  s_job_preemptions_.observe(static_cast<double>(b.preemptions));
  if (options_.decisions != nullptr) {
    options_.decisions->entry("finish")
        .num("t", now_)
        .integer("job", id)
        .num("jct", b.jct_seconds)
        .num("queueing", b.queueing_seconds)
        .num("running", b.running_seconds)
        .num("restart_overhead", b.restart_overhead_seconds)
        .integer("preemptions", b.preemptions);
  }
  if (observer_ != nullptr) observer_->on_job_finish(now_, b.jct_seconds);
  queue_changed_ = true;
}

void ExecutionEngine::fail_job(JobState& s) {
  const OwnerId owner = s.owner;
  const JobId dead = s.job.id;
  job_instant(s, "fault");
  if (options_.decisions != nullptr) {
    options_.decisions->entry("fault")
        .num("t", now_)
        .integer("job", dead)
        .str("reason", "job_fault");
  }
  leave_running(s, JobPhase::kQueued);
  c_faults_.inc();
  queue_changed_ = true;
  if (RunningGroup* g = leave_group(owner, dead, /*release_if_empty=*/true)) {
    replan_degraded(*g);
  }
}

void ExecutionEngine::handle_machine_event(const FaultEvent& e) {
  obs::DecisionLog* const decisions = options_.decisions;
  const auto mi = static_cast<size_t>(e.machine);
  switch (e.kind) {
    case FaultEvent::Kind::kMachineDown: {
      monitor_.on_failure(e.machine, now_);
      c_machine_failures_.inc();
      if (decisions != nullptr) {
        decisions->entry("machine_down")
            .num("t", now_)
            .integer("machine", static_cast<std::int64_t>(e.machine));
      }
      // A crash closes any open straggler window (the injector emits
      // kStragglerEnd first, but belt and braces).
      close_fault_window(machine_straggler_since_, e.machine, "straggler");
      machine_down_since_[mi] = now_;
      machine_slow_[mi] = ResourceVector{1.0, 1.0, 1.0, 1.0};
      for (size_t gi = 0; gi < running_groups_.size(); ++gi) {
        RunningGroup& g = running_groups_[gi];
        if (g.members.empty() ||
            std::find(g.machines.begin(), g.machines.end(), e.machine) ==
                g.machines.end()) {
          continue;
        }
        for (JobId id : g.members) {
          JobState& s = slot(id);
          if (s.phase != JobPhase::kRunning) continue;
          job_instant(s, "evict");
          c_preempt_machine_.inc();
          if (decisions != nullptr) {
            decisions->entry("evict")
                .num("t", now_)
                .integer("job", id)
                .integer("machine", static_cast<std::int64_t>(e.machine))
                .str("reason", "machine_down");
          }
          leave_running(s, JobPhase::kQueued);
          ++s.preemptions;
          c_evictions_.inc();
        }
        cluster_.release(static_cast<OwnerId>(gi + 1));
        g.members.clear();
      }
      cluster_.set_machine_available(e.machine, false);
      queue_changed_ = true;
      break;
    }
    case FaultEvent::Kind::kMachineUp: {
      monitor_.on_recovery(e.machine, now_);
      if (decisions != nullptr) {
        decisions->entry("machine_up")
            .num("t", now_)
            .integer("machine", static_cast<std::int64_t>(e.machine));
      }
      close_fault_window(machine_down_since_, e.machine, "down");
      if (monitor_.schedulable(e.machine)) {
        cluster_.set_machine_available(e.machine, true);
        queue_changed_ = true;
      }
      break;
    }
    case FaultEvent::Kind::kStragglerStart: {
      monitor_.on_straggler(e.machine, true);
      machine_straggler_since_[mi] = now_;
      machine_slow_[mi] = e.slowdown;
      refresh_straggler_factors();
      break;
    }
    case FaultEvent::Kind::kStragglerEnd: {
      monitor_.on_straggler(e.machine, false);
      const ResourceVector& slow = machine_slow_[mi];
      close_fault_window(machine_straggler_since_, e.machine, "straggler",
                         obs::TraceArgs("storage", slow[0], "cpu", slow[1],
                                        "gpu", slow[2], "network", slow[3]));
      machine_slow_[mi] = ResourceVector{1.0, 1.0, 1.0, 1.0};
      refresh_straggler_factors();
      break;
    }
  }
}

// Period inflation a job sees from the straggler windows on its group's
// machines: per-resource factors weighted by the job's own stage mix (a
// slow disk only hurts storage-heavy jobs).
double ExecutionEngine::straggler_factor_for(
    const Job& job, const std::vector<MachineId>& machines) const {
  ResourceVector f{1.0, 1.0, 1.0, 1.0};
  bool any = false;
  for (MachineId m : machines) {
    const ResourceVector& slow = machine_slow_[static_cast<size_t>(m)];
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      f[r] = std::max(f[r], slow[r]);
      any = any || slow[r] > 1.0;
    }
  }
  if (!any) return 1.0;
  double num = 0, den = 0;
  for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
    num += job.profile.stage_time[r] * f[r];
    den += job.profile.stage_time[r];
  }
  return den > 0 ? num / den : 1.0;
}

void ExecutionEngine::refresh_straggler_factors() {
  for (const RunningGroup& group : running_groups_) {
    for (JobId id : group.members) {
      JobState& s = slot(id);
      if (s.phase != JobPhase::kRunning) continue;
      const double f = straggler_factor_for(s.job, group.machines);
      if (f == s.straggler_factor) continue;
      // The factor scales the busy fractions stamped on the run-stage
      // span, so a change cycles the span to keep them constant.
      const MachineId m = s.run_machine;
      end_run_span(s);
      s.straggler_factor = f;
      begin_run_span(s, m);
      if (options_.decisions != nullptr) {
        options_.decisions->entry("straggler")
            .num("t", now_)
            .integer("job", id)
            .num("factor", f);
      }
    }
  }
}

// Re-plans a group that lost a member mid-round: the survivors continue
// immediately on the same GPU set as a *degraded* group with fresh
// periods, instead of stalling until the next round.
void ExecutionEngine::replan_degraded(RunningGroup& g) {
  const auto p = g.members.size();
  // No rotation schedule survives a member loss: fresh best-order plan for
  // an interleaved remnant, uncoordinated sharing otherwise, exclusive for
  // a lone survivor.
  execute_group(g.members, g.mode, {}, {}, 0, /*degraded=*/true);
  const GroupExecution& ex = exec_;
  g.mode = ex.effective_mode;
  if (g.mode == GroupMode::kInterleaved && p > 1) {
    for (JobId id : g.members) {
      slot(id).group_gamma = ex.gamma_pred;
    }
  }
  key_.assign(g.members, g.mode, g.num_gpus);

  // A fresh incarnation on the same GPU set; survivors keep their old
  // restart gate (they continue without paying a new penalty).
  const MachineId home =
      g.machines.empty() ? kInvalidMachine : g.machines.front();
  Time ready_at = 0;
  for (JobId id : g.members) {
    ready_at = std::max(ready_at, slot(id).ready_at);
  }
  GroupAccount* const acct_ptr =
      open_account(key_, home, ex.gamma_pred, ready_at);
  acct_ptr->degraded = true;
  const std::int64_t gid = group_seq_;

  for (size_t i = 0; i < p; ++i) {
    JobState& s = slot(g.members[i]);
    end_run_span(s);
    s.period = ex.periods[i];
    s.degraded = true;
    s.group_id = gid;
    s.acct = acct_ptr;
    begin_run_span(s, home);
  }
  if (options_.decisions != nullptr) {
    options_.decisions->entry("degraded_continue")
        .num("t", now_)
        .ids("jobs", g.members)
        .num("gamma", ex.gamma_pred)
        .str("mode", mode_name(g.mode));
  }
}

void ExecutionEngine::GroupKey::assign(const std::vector<JobId>& ids,
                                       GroupMode m, int gpus) {
  members.assign(ids.begin(), ids.end());
  std::sort(members.begin(), members.end());
  mode = m;
  num_gpus = gpus;
}

ExecutionEngine::GroupAccount* ExecutionEngine::open_account(
    const GroupKey& key, MachineId home, double gamma_predicted,
    Time ready_at) {
  GroupAccount acct;
  acct.key = key;
  acct.machine = home;
  acct.gamma_predicted = gamma_predicted;
  acct.window_start = now_;
  acct.window_end = now_;
  acct.ready_at = ready_at;
  for (JobId id : key.members) {
    const IterationProfile& profile = slot(id).job.profile;
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      if (profile.stage_time[r] > 0) acct.active[r] = true;
    }
  }
  return &group_accounts_.emplace(++group_seq_, std::move(acct))
              .first->second;
}

void ExecutionEngine::execute_group(const std::vector<JobId>& members,
                                    GroupMode mode,
                                    const std::vector<Resource>& slots,
                                    const std::vector<int>& offsets,
                                    Duration planned_period, bool degraded) {
  profiles_.clear();
  int max_gpus = 0, min_gpus = std::numeric_limits<int>::max();
  for (JobId id : members) {
    const JobState& s = slot(id);
    profiles_.push_back(s.job.profile);
    max_gpus = std::max(max_gpus, s.job.num_gpus);
    min_gpus = std::min(min_gpus, s.job.num_gpus);
  }
  compute_group_execution(profiles_, mode, max_gpus, min_gpus, slots, offsets,
                          planned_period, degraded, options_.exec, stages_,
                          exec_);
}

// ---------------------------------------------------------------------------
// Scheduling round.

void ExecutionEngine::run_round() {
  queue_changed_ = false;
  prune_live();
  // Start deadlines: a job still never scheduled past its deadline is
  // cancelled up front so the scheduler does not plan around it.
  for (JobId id : live_) {
    JobState& s = slot(id);
    if (s.phase == JobPhase::kQueued && s.deadline_s > 0 &&
        s.first_scheduled < 0 && now_ - s.job.submit_time > s.deadline_s) {
      cancel(s.job.id, now_, "start_deadline");
    }
  }

  queue_.clear();
  for (JobId id : live_) {
    const JobState& s = slot(id);
    if (!is_live(s)) continue;
    JobView v;
    v.id = s.job.id;
    v.num_gpus = s.job.num_gpus;
    v.submit_time = s.job.submit_time;
    v.measured = s.measured;
    v.attained_service = s.attained_gpu_seconds;
    v.age = now_ - s.job.submit_time;
    v.remaining_time = options_.durations_known ? s.remaining_solo() : 0.0;
    v.running = s.phase == JobPhase::kRunning;
    queue_.push_back(v);
  }
  SchedulerContext ctx;
  ctx.now = now_;
  ctx.total_gpus = cluster_.total_gpus();
  ctx.gpus_per_machine = options_.cluster.gpus_per_machine;
  ctx.durations_known = options_.durations_known;
  // Failed and blacklisted machines are out of the allocatable pool.
  ctx.available_gpus = cluster_.available_gpus();

  const auto t_schedule = std::chrono::steady_clock::now();
  const std::vector<PlannedGroup> plan = scheduler_.schedule(queue_, ctx);
  const auto t_place = std::chrono::steady_clock::now();
  scheduler_wall_ms_ += seconds_between(t_schedule, t_place) * 1e3;
  ++rounds_;

  // The tracer's round instant carries the round id that cross-links into
  // the decision log (the round ordinal when no log is wired, so trace
  // bytes do not depend on whether a log is attached).
  obs::DecisionLog* const decisions = options_.decisions;
  if (options_.tracer != nullptr) {
    const std::int64_t round_id =
        decisions != nullptr ? decisions->current_round() : rounds_;
    options_.tracer->instant_at(
        to_us(now_), "round", "sched", obs::kSchedulerTrack, 0,
        obs::TraceArgs("queue", static_cast<double>(queue_.size()), "groups",
                       static_cast<double>(plan.size()), "round",
                       static_cast<double>(round_id)));
  }
  place(plan);

  // Post-round wait verdicts: the "wait" record classifies every job the
  // plan left waiting (ids ascending) into a per-job timeline wait bucket.
  if (decisions != nullptr) {
    const std::vector<JobId>& deferred = scheduler_.last_deferred();
    const int capacity = ctx.capacity();
    std::vector<std::int64_t> wait_ids;
    std::vector<std::string> wait_buckets;
    for (JobId id : live_) {
      const JobState& s = slot(id);
      if (s.phase != JobPhase::kQueued) continue;
      const bool was_deferred =
          std::binary_search(deferred.begin(), deferred.end(), s.job.id);
      wait_ids.push_back(s.job.id);
      wait_buckets.emplace_back(obs::span_kind_name(
          obs::classify_wait(was_deferred, s.job.num_gpus, capacity)));
    }
    if (!wait_ids.empty()) {
      decisions->entry("wait")
          .num("t", now_)
          .ids("job", wait_ids)
          .strs("bucket", wait_buckets);
    }
  }
  if (observer_ != nullptr) {
    observer_->on_round(
        now_, seconds_between(t_schedule, t_place),
        seconds_between(t_place, std::chrono::steady_clock::now()));
  }
}

// The one placement routine: places the plan's groups in order on a reset
// cluster, runs each under the execution model, restarts jobs whose
// configuration changed, and preempts every running job the plan left out.
void ExecutionEngine::place(const std::vector<PlannedGroup>& plan) {
  obs::DecisionLog* const decisions = options_.decisions;
  cluster_.reset();
  for (RunningGroup& rg : running_groups_) {
    rg.members.clear();
    rg.machines.clear();
  }
  // Members of admitted groups carry placed_round == rounds_.
  admitted_.clear();
  OwnerId next_owner = 1;

  for (const PlannedGroup& g : plan) {
    if (g.members.empty()) continue;
    bool valid = true;
    int max_gpus = 0;
    for (JobId id : g.members) {
      const JobState* s = find(id);
      if (s == nullptr ||
          !is_live(*s) || s->placed_round == rounds_) {
        valid = false;
        break;
      }
      max_gpus = std::max(max_gpus, s->job.num_gpus);
    }
    valid = valid && g.num_gpus >= max_gpus;
    if (!valid || !cluster_.can_allocate(g.num_gpus)) {
      if (decisions != nullptr) {
        auto e = decisions->entry("placement_skip");
        e.num("t", now_).ids("jobs", g.members).integer("gpus", g.num_gpus);
        if (valid) {
          e.str("reason", "no_capacity")
              .integer("available_gpus", cluster_.available_gpus());
        } else {
          e.str("reason", "invalid");
        }
      }
      continue;
    }
    const OwnerId owner = next_owner++;
    cluster_.allocate(owner, g.num_gpus, gpus_);

    if (running_groups_.size() < static_cast<size_t>(owner)) {
      running_groups_.resize(static_cast<size_t>(owner));
    }
    RunningGroup& rg = running_groups_[static_cast<size_t>(owner - 1)];
    rg.members.assign(g.members.begin(), g.members.end());
    rg.mode = g.mode;
    rg.num_gpus = g.num_gpus;
    for (GpuId gpu : gpus_) {
      const MachineId m = cluster_.machine_of(gpu);
      if (rg.machines.empty() || rg.machines.back() != m) {
        rg.machines.push_back(m);
      }
    }
    if (decisions != nullptr) {
      std::vector<int> machine_ids(rg.machines.begin(), rg.machines.end());
      auto e = decisions->entry("placement");
      e.num("t", now_)
          .ids("jobs", g.members)
          .integer("gpus", g.num_gpus)
          .str("mode", mode_name(g.mode))
          .ints("machines", machine_ids)
          .integer("owner", static_cast<std::int64_t>(owner));
      // The priced γ, so the jobtrace fold needs no explanation record.
      if (g.mode == GroupMode::kInterleaved) e.num("gamma", g.gamma);
    }
    for (JobId id : g.members) {
      slot(id).placed_round = rounds_;
    }
    admitted_.push_back({&g, owner});
  }

  // Execution periods; start or continue each admitted job.
  for (const auto& [group, owner] : admitted_) {
    const auto p = group->members.size();
    // The shared execution model runs the scheduler's rotation schedule
    // against the ground-truth profiles.
    execute_group(group->members, group->mode, group->slots, group->offsets,
                  group->planned_period, /*degraded=*/false);
    const GroupExecution& ex = exec_;
    if (group->mode == GroupMode::kInterleaved && p > 1) {
      for (JobId id : group->members) {
        slot(id).group_gamma = ex.gamma_pred;
      }
    }

    const std::vector<MachineId>& machines =
        running_groups_[static_cast<size_t>(owner - 1)].machines;
    const MachineId home =
        machines.empty() ? kInvalidMachine : machines.front();

    // An unchanged group (same members, mode, GPUs, every member still
    // running under the same key) keeps its incarnation; anything else
    // opens a new one.
    key_.assign(group->members, group->mode, group->num_gpus);
    const auto same_key = [this](const JobState& s) {
      return s.phase == JobPhase::kRunning && s.acct->key == key_;
    };
    bool group_unchanged = true;
    for (JobId id : group->members) {
      group_unchanged = group_unchanged && same_key(slot(id));
    }
    std::int64_t gid;
    GroupAccount* acct_ptr;
    if (group_unchanged) {
      const JobState& first = slot(group->members[0]);
      gid = first.group_id;
      acct_ptr = first.acct;
      // Attribution follows the placement if the unchanged group moved.
      if (acct_ptr != nullptr) acct_ptr->machine = home;
    } else {
      acct_ptr = open_account(key_, home, ex.gamma_pred,
                              now_ + options_.restart_penalty);
      gid = group_seq_;
    }

    for (size_t i = 0; i < p; ++i) {
      const JobId id = group->members[i];
      JobState& s = slot(id);
      const bool running = s.phase == JobPhase::kRunning;
      const bool unchanged = same_key(s);
      const double strag = straggler_factor_for(s.job, machines);
      if (!unchanged) {
        if (running) {
          c_restarts_.inc();
          job_instant(s, "restart");
          if (decisions != nullptr) {
            decisions->entry("restart")
                .num("t", now_)
                .integer("job", id)
                .str("reason", "regrouped");
          }
          end_run_span(s);
        } else {
          ++running_;
        }
        s.ready_at = now_ + options_.restart_penalty;
        s.next_fault =
            fault_rate_ > 0
                ? now_ + std::exponential_distribution<double>(fault_rate_)(
                             s.fault_stream)
                : kInf;
        if (s.first_scheduled < 0) {
          s.first_scheduled = now_;
          if (observer_ != nullptr) {
            observer_->on_first_schedule(now_, now_ - s.job.submit_time);
          }
        }
      } else if (s.run_since != kNoTime &&
                 (s.period != ex.periods[i] || s.straggler_factor != strag ||
                  s.run_machine != home || s.degraded)) {
        // Same key but drifted execution parameters (recomputed period,
        // straggler factor, machine move, or a re-admitted degraded
        // continuation): cycle the run-stage span so the busy fractions
        // stamped on it stay constant over its window.
        end_run_span(s);
      }
      if (strag != s.straggler_factor) {
        // The factor this placement realizes differs from the job's last
        // known one (first placement onto a straggling machine, or an
        // unchanged group whose machines drifted).
        if (decisions != nullptr) {
          decisions->entry("straggler")
              .num("t", now_)
              .integer("job", id)
              .num("factor", strag);
        }
      }
      s.period = ex.periods[i];
      s.owner = owner;
      s.straggler_factor = strag;
      s.degraded = false;
      s.group_id = gid;
      s.acct = acct_ptr;
      s.phase = JobPhase::kRunning;
      if (s.run_since == kNoTime) begin_run_span(s, home);
    }
  }

  // Jobs not in the admitted plan are preempted back to the queue.
  for (JobId id : live_) {
    JobState& s = slot(id);
    if (s.phase != JobPhase::kRunning || s.placed_round == rounds_) continue;
    job_instant(s, "preempt");
    c_preempt_displaced_.inc();
    if (decisions != nullptr) {
      decisions->entry("preempt")
          .num("t", now_)
          .integer("job", s.job.id)
          .str("reason", "displaced");
    }
    leave_running(s, JobPhase::kQueued);
    ++s.preemptions;
  }
  refresh_utilization();
}

// ---------------------------------------------------------------------------
// Simulator metrics.

void ExecutionEngine::refresh_utilization() {
  // Each running job contributes its stage-time densities on its group's
  // GPU share.
  utilization_.fill(0.0);
  const double total_gpus = cluster_.total_gpus();
  for (JobId id : live_) {
    const JobState& s = slot(id);
    if (s.phase != JobPhase::kRunning || s.period <= 0) continue;
    const double share =
        static_cast<double>(s.acct->key.num_gpus) / total_gpus;
    for (int j = 0; j < kNumResources; ++j) {
      const double density =
          s.job.profile.stage_time[static_cast<size_t>(j)] / s.period;
      utilization_[static_cast<size_t>(j)] += share * std::min(density, 1.0);
    }
  }
  for (double& u : utilization_) u = std::min(u, 1.0);
  emit_busy_counters();
}

void ExecutionEngine::observe_metrics() {
  int pending = 0;
  double blocking_sum = 0;
  int running = 0;
  double rate_sum = 0;
  double gamma_sum = 0;
  int grouped = 0;
  // Every running member of one key shares one incarnation id, so groups
  // are counted by group id; widths are small integers, so width_sum is
  // exact in any order.
  seen_groups_.clear();
  for (JobId id : live_) {
    const JobState& s = slot(id);
    if (s.phase == JobPhase::kQueued) {
      ++pending;
      const Duration pending_time = (now_ - s.job.submit_time) - s.ran_wall;
      const Duration remaining = std::max(s.remaining_solo(), 1.0);
      blocking_sum += std::max(pending_time, 0.0) / remaining;
    } else if (s.phase == JobPhase::kRunning) {
      ++running;
      if (s.period > 0) rate_sum += s.job.profile.iteration_time() / s.period;
      const size_t width = s.acct->key.members.size();
      seen_groups_.emplace_back(s.group_id, static_cast<int>(width));
      if (width > 1) {
        gamma_sum += s.group_gamma;
        ++grouped;
      }
    }
  }
  const double queue_len = pending;
  const double blocking = pending > 0 ? blocking_sum / pending : 0.0;
  queue_avg_.observe(now_, queue_len);
  blocking_avg_.observe(now_, blocking);
  running_avg_.observe(now_, running);
  if (grouped > 0) gamma_avg_.observe(now_, gamma_sum / grouped);
  if (running > 0) {
    rate_avg_.observe(now_, rate_sum / running);
    std::sort(seen_groups_.begin(), seen_groups_.end());
    seen_groups_.erase(std::unique(seen_groups_.begin(), seen_groups_.end()),
                       seen_groups_.end());
    double width_sum = 0;
    for (const auto& [gid, width] : seen_groups_) width_sum += width;
    width_avg_.observe(now_,
                       width_sum / static_cast<double>(seen_groups_.size()));
  }
  for (int j = 0; j < kNumResources; ++j) {
    util_avg_[static_cast<size_t>(j)].observe(
        now_, utilization_[static_cast<size_t>(j)]);
  }
  if (options_.record_series) {
    queue_series_.record(now_, queue_len);
    blocking_series_.record(now_, blocking);
    for (int j = 0; j < kNumResources; ++j) {
      util_series_[static_cast<size_t>(j)].record(
          now_, utilization_[static_cast<size_t>(j)]);
    }
  }
}

void ExecutionEngine::finalize(Time end, SimResult& result) {
  now_ = end;
  // Close trace spans still open at the stop (max_time cutoffs, aborted
  // runs, machines that never came back).
  for (JobState& s : jobs_) end_run_span(s);
  for (MachineId m = 0; m < options_.cluster.num_machines; ++m) {
    close_fault_window(machine_down_since_, m, "down");
    close_fault_window(machine_straggler_since_, m, "straggler");
  }

  // Fault counters come back out of the registry as per-run deltas (the
  // registry may be shared across runs).
  result.faults = std::llround(c_faults_.value() - counter_base_[0]);
  result.restarts = std::llround(c_restarts_.value() - counter_base_[1]);
  result.machine_failures =
      std::llround(c_machine_failures_.value() - counter_base_[2]);
  result.evictions = std::llround(c_evictions_.value() - counter_base_[3]);
  result.straggler_seconds = c_straggler_seconds_.value() - counter_base_[4];
  result.degraded_group_seconds =
      c_degraded_seconds_.value() - counter_base_[5];
  result.finished_jobs = static_cast<int>(finished_);
  result.jcts = jcts_;
  result.jct_breakdown = breakdowns_;
  result.avg_jct = mean(result.jcts);
  result.p99_jct = percentile(result.jcts, 99.0);
  result.avg_queue_length = queue_avg_.finalize(now_);
  result.avg_blocking_index = blocking_avg_.finalize(now_);
  for (int j = 0; j < kNumResources; ++j) {
    result.avg_utilization[static_cast<size_t>(j)] =
        util_avg_[static_cast<size_t>(j)].finalize(now_);
  }
  if (options_.record_series) {
    result.queue_series = queue_series_.points();
    result.blocking_series = blocking_series_.points();
    for (int j = 0; j < kNumResources; ++j) {
      result.util_series[static_cast<size_t>(j)] =
          util_series_[static_cast<size_t>(j)].points();
    }
  }
  result.avg_running_jobs = running_avg_.finalize(now_);
  result.avg_group_width = width_avg_.finalize(now_);
  result.avg_normalized_rate = rate_avg_.finalize(now_);
  result.avg_group_gamma_predicted = gamma_avg_.finalize(now_);

  // Realized γ per retired multi-member incarnation: busy seconds over the
  // active window (wall minus the shared restart stall), averaged over the
  // resources the group uses, then window-weighted across incarnations.
  result.resource_busy_seconds = busy_total_;
  obs::Summary& s_realized = registry_.summary(
      "muri_group_gamma_realized",
      "Realized interleaving efficiency per retired multi-member group");
  obs::Summary& s_error = registry_.summary(
      "muri_group_gamma_error",
      "Realized minus predicted gamma per retired multi-member group");
  double weight = 0, realized_sum = 0, error_sum = 0;
  for (const auto& [gid, acct] : group_accounts_) {
    if (acct.key.members.size() < 2) continue;
    const double wall = acct.window_end - acct.window_start;
    const double stall =
        std::clamp(acct.ready_at - acct.window_start, 0.0, wall);
    const double active_window = wall - stall;
    if (active_window <= 0) continue;
    int used = 0;
    double fraction_sum = 0;
    for (int r = 0; r < kNumResources; ++r) {
      const auto ri = static_cast<size_t>(r);
      if (!acct.active[ri]) continue;
      ++used;
      fraction_sum += std::min(acct.busy[ri] / active_window, 1.0);
    }
    if (used == 0) continue;
    const double realized = fraction_sum / used;
    s_realized.observe(realized);
    s_error.observe(realized - acct.gamma_predicted);
    realized_sum += realized * active_window;
    error_sum += (realized - acct.gamma_predicted) * active_window;
    weight += active_window;
  }
  if (weight > 0) {
    result.avg_group_gamma_realized = realized_sum / weight;
    result.avg_group_gamma_error = error_sum / weight;
  }

  result.scheduler_invocations = rounds_;
  result.scheduler_wall_ms = scheduler_wall_ms_;
  result.profiler_sessions = profiler_.sessions();
  result.profiling_time = profiler_.profiling_time();
}

// ---------------------------------------------------------------------------
// Trace helpers. A run-stage span covers one uninterrupted placement of a
// job (same key, same machine set); whatever ends it — preemption,
// eviction, fault, completion, regrouping — closes the span first and then
// marks the cause with an instant event.

void ExecutionEngine::end_run_span(JobState& s) {
  obs::Tracer* const tracer = options_.tracer;
  if (tracer == nullptr || s.run_since == kNoTime) return;
  const int pid = obs::machine_track(s.run_machine >= 0 ? s.run_machine : 0);
  // Span cycling keeps (period, straggler factor, machine) constant over
  // each span, so one set of busy fractions describes its window: resource
  // r was occupied busy_<r> × (dur − overhead) seconds. `overhead` is the
  // restart-gate stall inside the span; `group` ties it to its incarnation
  // and `gamma_pred` is the schedule-time γ.
  const Duration span_wall = now_ - s.run_since;
  const Duration span_overhead =
      std::clamp(s.ready_at - s.run_since, 0.0, span_wall);
  std::array<double, kNumResources> busy{};
  if (s.period > 0 && std::isfinite(s.period)) {
    for (int r = 0; r < kNumResources; ++r) {
      busy[static_cast<size_t>(r)] =
          s.job.profile.stage_time[static_cast<size_t>(r)] /
          (s.period * s.straggler_factor);
    }
  }
  const size_t group_size = s.acct != nullptr ? s.acct->key.members.size() : 0;
  obs::TraceArgs args("group_size", static_cast<double>(group_size),
                      "gamma", s.group_gamma, "period", s.period, "degraded",
                      s.degraded ? 1.0 : 0.0);
  args.add("run", run_epoch_)
      .add("group", static_cast<double>(s.group_id))
      .add("gamma_pred", s.acct != nullptr ? s.acct->gamma_predicted : 0.0)
      .add("overhead", span_overhead)
      .add("busy_storage", busy[0])
      .add("busy_cpu", busy[1])
      .add("busy_gpu", busy[2])
      .add("busy_net", busy[3]);
  tracer->complete(to_us(s.run_since), to_us(now_) - to_us(s.run_since),
                   "run-stage", "job", pid, static_cast<int>(s.job.id), args);
  s.run_since = kNoTime;
  s.run_machine = kInvalidMachine;
}

// Exports an open machine fault window as a span on the machine's track.
void ExecutionEngine::close_fault_window(std::vector<Time>& since,
                                         MachineId m, const char* name,
                                         obs::TraceArgs args) {
  Time& start = since[static_cast<size_t>(m)];
  if (start != kNoTime && options_.tracer != nullptr) {
    options_.tracer->complete(to_us(start), to_us(now_) - to_us(start), name,
                              "fault", obs::machine_track(m), 0,
                              std::move(args));
  }
  start = kNoTime;
}

void ExecutionEngine::begin_run_span(JobState& s, MachineId machine) {
  if (options_.tracer == nullptr) return;
  s.run_since = now_;
  s.run_machine = machine;
  options_.tracer->name_lane(obs::machine_track(machine >= 0 ? machine : 0),
                             static_cast<int>(s.job.id),
                             "job " + std::to_string(s.job.id));
}

void ExecutionEngine::job_instant(const JobState& s, const char* name) {
  if (options_.tracer == nullptr) return;
  const int pid = s.run_machine >= 0 ? obs::machine_track(s.run_machine)
                                     : obs::kSchedulerTrack;
  options_.tracer->instant_at(
      to_us(now_), name, "job", pid, static_cast<int>(s.job.id),
      obs::TraceArgs("job", static_cast<double>(s.job.id), "run",
                     run_epoch_));
}

// Chrome counter track per machine: the per-resource busy fractions of the
// jobs attributed to it, sampled whenever the running set changes.
void ExecutionEngine::emit_busy_counters() {
  obs::Tracer* const tracer = options_.tracer;
  if (tracer == nullptr) return;
  std::vector<std::array<double, kNumResources>> density(
      static_cast<size_t>(options_.cluster.num_machines));
  for (JobId id : live_) {
    const JobState& s = slot(id);
    if (s.phase != JobPhase::kRunning || s.acct == nullptr) continue;
    if (!(s.period > 0) || !std::isfinite(s.period)) continue;
    size_t m = s.acct->machine >= 0 ? static_cast<size_t>(s.acct->machine)
                                    : 0;
    if (m >= density.size()) m = 0;
    for (int r = 0; r < kNumResources; ++r) {
      density[m][static_cast<size_t>(r)] +=
          s.job.profile.stage_time[static_cast<size_t>(r)] /
          (s.period * s.straggler_factor);
    }
  }
  for (size_t m = 0; m < density.size(); ++m) {
    tracer->counter(to_us(now_), "busy",
                    obs::machine_track(static_cast<int>(m)),
                    obs::TraceArgs("storage", density[m][0], "cpu",
                                   density[m][1], "gpu", density[m][2],
                                   "network", density[m][3]));
  }
}

}  // namespace muri
