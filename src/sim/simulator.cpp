#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "obs/provenance.h"
#include "sim/engine.h"

namespace muri {

SimResult run_simulation(const Trace& trace, Scheduler& scheduler,
                         const SimOptions& options) {
  SimResult result;
  result.scheduler_name = scheduler.name();
  result.trace_name = trace.name;
  if (trace.jobs.empty()) return result;

  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  const size_t n = trace.jobs.size();
  std::vector<size_t> arrival_order(n);
  std::iota(arrival_order.begin(), arrival_order.end(), size_t{0});
  std::stable_sort(arrival_order.begin(), arrival_order.end(),
                   [&](size_t a, size_t b) {
                     return trace.jobs[a].submit_time <
                            trace.jobs[b].submit_time;
                   });
  for (size_t i = 0; i < n; ++i) {
    assert(trace.jobs[i].id == static_cast<JobId>(i) &&
           "trace job ids must be dense");
  }

  const Time start_time = trace.jobs[arrival_order[0]].submit_time;
  ExecutionEngine engine(scheduler, options, start_time);
  obs::DecisionLog* const decisions = options.decisions;
  // Run-lifecycle records (sim_start ... sim_end) bracket the run so replay
  // (src/recovery) can tell runs apart in a shared log and rebuild the
  // cluster shape without the trace in hand.
  if (decisions != nullptr) {
    decisions->entry("sim_start")
        .num("t", start_time)
        .integer("jobs", static_cast<std::int64_t>(n))
        .integer("machines", options.cluster.num_machines)
        .integer("gpus", engine.cluster().total_gpus())
        .num("interval", options.schedule_interval)
        .num("restart_penalty", options.restart_penalty);
  }
  engine.observe_metrics();

  size_t next_arrival = 0;
  Time last_round = start_time - options.schedule_interval;  // fires now
  // Whether a round is wanted: something changed since the last round, or
  // jobs still wait (time-varying priorities must be able to preempt).
  bool dirty = true;
  int stall_rounds = 0;
  Time end = kInf;
  while (engine.finished_jobs() < static_cast<std::int64_t>(n)) {
    const Time t_arrival =
        next_arrival < n ? trace.jobs[arrival_order[next_arrival]].submit_time
                         : kInf;
    const Time t_round =
        dirty ? std::max(engine.now(), last_round + options.schedule_interval)
              : kInf;
    Time t_next = std::min({t_arrival, engine.next_event_time(), t_round});
    if (t_next == kInf) {
      // Nothing pending but jobs remain: force a round (defensive).
      dirty = true;
      t_next = engine.now();
    }
    if (options.max_time > 0 && t_next > options.max_time) {
      end = options.max_time;
      break;
    }
    engine.progress_to(t_next);

    const Time now = engine.now();
    while (next_arrival < n &&
           trace.jobs[arrival_order[next_arrival]].submit_time <= now) {
      const Job& job = trace.jobs[arrival_order[next_arrival++]];
      engine.submit(job);
      if (decisions != nullptr) {
        decisions->entry("arrival")
            .num("t", now)
            .integer("job", job.id)
            .integer("gpus", job.num_gpus);
      }
    }
    engine.settle();
    dirty = dirty || engine.dirty();
    if (dirty) engine.refresh_utilization();

    if (dirty && now >= last_round + options.schedule_interval - 1e-9) {
      engine.run_round();
      last_round = now;
      dirty = engine.queued_jobs() > 0;
      // A queue that cannot be placed is only a scheduler bug when the
      // whole pool is up; with machines out, jobs legitimately wait for
      // repair or probation to end.
      const Cluster& cluster = engine.cluster();
      if (dirty && engine.running_jobs() == 0 && next_arrival >= n &&
          cluster.available_machines() == cluster.num_machines()) {
        if (++stall_rounds >= 3) {
          MURI_LOG(kError) << scheduler.name()
                           << ": scheduler cannot place remaining jobs; "
                              "aborting simulation";
          break;
        }
      } else {
        stall_rounds = 0;
      }
    }
    engine.observe_metrics();
  }

  if (end == kInf) end = engine.now();
  engine.finalize(end, result);
  result.unfinished_jobs = static_cast<int>(n) - result.finished_jobs;
  result.makespan = end - start_time;
  if (decisions != nullptr) {
    decisions->entry("sim_end")
        .num("t", end)
        .num("makespan", result.makespan)
        .integer("finished", result.finished_jobs)
        .integer("unfinished", result.unfinished_jobs);
  }
  return result;
}

std::string result_fingerprint(const SimResult& r) {
  std::string out = "{\"scheduler\":\"" + r.scheduler_name +
                    "\",\"trace\":\"" + r.trace_name + "\"";
  const auto num = [&out](const char* key, double v) {
    out += ",\"";
    out += key;
    out += "\":";
    obs::append_json_double(out, v);
  };
  num("avg_jct", r.avg_jct);
  num("p99_jct", r.p99_jct);
  num("makespan", r.makespan);
  num("avg_queue_length", r.avg_queue_length);
  num("avg_blocking_index", r.avg_blocking_index);
  for (std::size_t i = 0; i < r.avg_utilization.size(); ++i) {
    num("util", r.avg_utilization[i]);
    num("busy", r.resource_busy_seconds[i]);
  }
  num("avg_running_jobs", r.avg_running_jobs);
  num("avg_group_width", r.avg_group_width);
  num("avg_normalized_rate", r.avg_normalized_rate);
  num("gamma_pred", r.avg_group_gamma_predicted);
  num("gamma_real", r.avg_group_gamma_realized);
  num("gamma_err", r.avg_group_gamma_error);
  num("finished", r.finished_jobs);
  num("unfinished", r.unfinished_jobs);
  num("faults", static_cast<double>(r.faults));
  num("restarts", static_cast<double>(r.restarts));
  num("machine_failures", static_cast<double>(r.machine_failures));
  num("evictions", static_cast<double>(r.evictions));
  num("straggler_seconds", r.straggler_seconds);
  num("degraded_group_seconds", r.degraded_group_seconds);
  num("invocations", static_cast<double>(r.scheduler_invocations));
  num("profiler_sessions", r.profiler_sessions);
  num("profiling_time", r.profiling_time);
  out += ",\"jcts\":[";
  for (std::size_t i = 0; i < r.jcts.size(); ++i) {
    if (i != 0) out += ',';
    obs::append_json_double(out, r.jcts[i]);
  }
  out += "],\"breakdown\":[";
  for (std::size_t i = 0; i < r.jct_breakdown.size(); ++i) {
    const JctBreakdown& b = r.jct_breakdown[i];
    if (i != 0) out += ',';
    out += '[' + std::to_string(b.job) + ',';
    obs::append_json_double(out, b.queueing_seconds);
    out += ',';
    obs::append_json_double(out, b.running_seconds);
    out += ',';
    obs::append_json_double(out, b.restart_overhead_seconds);
    out += ',' + std::to_string(b.preemptions) + ']';
  }
  out += "]}";
  return out;
}

}  // namespace muri
