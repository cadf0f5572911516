// Incremental-equivalence driver for the CI gate (DESIGN.md "Incremental
// scheduling rounds"): MuriOptions::incremental is a pure latency knob,
// so everything observable must be bit-identical to the full rebuild.
// Two layers of evidence, both enforced here:
//
//  - Simulation level: run the same seeded Philly-like trace (job faults
//    and machine crash/repair enabled, so eviction/requeue churn hits the
//    incremental caches) through a rebuild scheduler and an incremental
//    one. The deterministic slice of the SimResult (everything except
//    scheduler_wall_ms), the DecisionLog JSONL, and the Chrome trace JSON
//    (driven in simulated time) must match byte for byte.
//
//  - Scheduler level: a persistent scheduler pair over a randomized
//    churned queue. Every (mode, threads) combination must reproduce the
//    serial rebuild's plan bit-for-bit every round — the same reference
//    discipline as bench_scalability's determinism gate — and the
//    attached DecisionLogs must be byte-equal at the end.
//
//   bench_equivalence --seeds=13,99 --threads=1,4 --topk=0,8 \
//       [--churn=0.05] [--jobs=200] [--rounds=16] [--sim-jobs=160]
//
// Exits 0 when every combination matches, 1 on the first divergence
// (all combinations are still run and reported).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "job/model.h"
#include "job/trace.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

namespace {

using namespace muri;

std::vector<int> parse_int_list(const std::string& csv,
                                std::vector<int> fallback) {
  if (csv.empty()) return fallback;
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (!tok.empty()) out.push_back(std::stoi(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// The deterministic slice of a SimResult (the bench_recovery discipline:
// everything except wall-clock accounting), serialized byte-stably so a
// plain string compare is the assertion.
MuriOptions make_options(int top_k, int threads, bool incremental,
                         bool durations_known) {
  MuriOptions opt;
  opt.durations_known = durations_known;
  opt.num_threads = threads;
  opt.top_k = top_k;
  opt.component_cap = 16;
  opt.candidate_cap = 256;
  opt.incremental = incremental;
  return opt;
}

// --- Simulation level ---------------------------------------------------

struct SimRun {
  std::string result;
  std::string decisions;
  std::string trace;
};

SimRun run_sim(const Trace& trace, const MuriOptions& muri_options) {
  obs::Tracer tracer;
  obs::DecisionLog log;
  SimOptions sim;
  sim.cluster.num_machines = 8;
  sim.cluster.gpus_per_machine = 8;
  sim.schedule_interval = 120;
  sim.restart_penalty = 10;
  sim.mtbf_hours = 2.0;
  sim.machine_faults.machine_mtbf_hours = 6.0;
  sim.machine_faults.machine_mttr_hours = 0.2;
  sim.max_time = 14 * 24 * 3600;
  sim.durations_known = muri_options.durations_known;
  sim.tracer = &tracer;
  sim.decisions = &log;
  MuriScheduler scheduler(muri_options);
  const SimResult result = run_simulation(trace, scheduler, sim);
  SimRun out;
  out.result = result_fingerprint(result);
  out.decisions = log.jsonl();
  out.trace = tracer.chrome_trace_json();
  return out;
}

bool sim_level_check(int seed, int threads, int top_k, bool known,
                     int sim_jobs) {
  PhillyTraceOptions trace_options;
  trace_options.name = "equivalence";
  trace_options.num_jobs = sim_jobs;
  trace_options.seed = static_cast<std::uint64_t>(seed);
  trace_options.jobs_per_hour = 60;
  trace_options.duration_log_mean = 6.0;
  trace_options.max_duration = 4 * 3600;
  const Trace trace = generate_philly_like(trace_options);

  const SimRun want =
      run_sim(trace, make_options(top_k, threads, /*incremental=*/false,
                                  known));
  const SimRun got =
      run_sim(trace, make_options(top_k, threads, /*incremental=*/true,
                                  known));
  bool ok = true;
  if (want.result != got.result) {
    std::fprintf(stderr, "  SIM RESULT DIVERGED\n  want %s\n  got  %s\n",
                 want.result.c_str(), got.result.c_str());
    ok = false;
  }
  if (want.decisions != got.decisions) {
    std::fprintf(stderr, "  DECISION LOG DIVERGED (%zu vs %zu bytes)\n",
                 want.decisions.size(), got.decisions.size());
    ok = false;
  }
  if (want.trace != got.trace) {
    std::fprintf(stderr, "  TRACE DIVERGED (%zu vs %zu bytes)\n",
                 want.trace.size(), got.trace.size());
    ok = false;
  }
  std::printf("sim    seed=%-4d threads=%d topk=%d %-6s jobs=%-5d %s\n",
              seed, threads, top_k, known ? "muri-s" : "muri-l", sim_jobs,
              ok ? "ok" : "DIVERGED");
  return ok;
}

// --- Scheduler level ----------------------------------------------------

std::vector<JobView> make_queue(Rng& rng, JobId& next_id, int n) {
  std::vector<JobView> queue;
  queue.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    JobView v;
    v.id = next_id++;
    v.num_gpus = 1 << rng.uniform_int(0, 3);
    v.submit_time = rng.uniform(0, 500);
    v.attained_service = rng.uniform(0, 2000);
    v.remaining_time = rng.uniform(10, 3000);
    v.measured = model_profile(
        kAllModels[static_cast<std::size_t>(
            rng.uniform_int(0, kNumModels - 1))],
        v.num_gpus);
    queue.push_back(v);
  }
  return queue;
}

void churn_queue(Rng& rng, JobId& next_id, double churn,
                 std::vector<JobView>& queue) {
  const int n = std::max(
      1, static_cast<int>(churn * static_cast<double>(queue.size())));
  for (int i = 0; i < n && !queue.empty(); ++i) {
    const auto victim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(queue.size()) - 1));
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  const auto fresh = make_queue(rng, next_id, n);
  queue.insert(queue.end(), fresh.begin(), fresh.end());
  for (JobView& v : queue) {
    if (rng.uniform_int(0, 3) == 0) v.attained_service += rng.uniform(0, 50);
  }
}

bool same_plan(const std::vector<PlannedGroup>& a,
               const std::vector<PlannedGroup>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].members != b[i].members) return false;
    if (a[i].num_gpus != b[i].num_gpus) return false;
    if (a[i].mode != b[i].mode) return false;
    if (a[i].slots != b[i].slots) return false;
    if (a[i].offsets != b[i].offsets) return false;
    if (a[i].planned_period != b[i].planned_period) return false;  // bitwise
  }
  return true;
}

// One seeded churn story, replayed by every (mode, threads) combination.
// The serial rebuild is the reference for all of them — incremental must
// match it at every thread count, not merely match rebuild at its own.
bool sched_level_check(int seed, const std::vector<int>& thread_list,
                       int top_k, bool known, double churn, int jobs,
                       int rounds) {
  std::vector<std::vector<JobView>> queues;
  {
    Rng rng(static_cast<std::uint64_t>(seed));
    JobId next_id = 0;
    auto queue = make_queue(rng, next_id, jobs);
    for (int r = 0; r < rounds; ++r) {
      queues.push_back(queue);
      churn_queue(rng, next_id, churn, queue);
    }
  }
  SchedulerContext ctx;
  ctx.total_gpus = jobs;
  ctx.gpus_per_machine = 8;
  ctx.durations_known = known;

  std::vector<std::vector<PlannedGroup>> reference;
  std::string reference_log;
  bool ok = true;
  for (bool incremental : {false, true}) {
    for (int threads : thread_list) {
      MuriScheduler sched(make_options(top_k, threads, incremental, known));
      obs::DecisionLog log;
      sched.set_decision_log(&log);
      for (int r = 0; r < rounds; ++r) {
        auto plan = sched.schedule(queues[static_cast<std::size_t>(r)], ctx);
        if (reference.size() <= static_cast<std::size_t>(r)) {
          reference.push_back(std::move(plan));
        } else if (!same_plan(reference[static_cast<std::size_t>(r)], plan)) {
          std::fprintf(stderr,
                       "  PLAN DIVERGED seed=%d topk=%d %s threads=%d "
                       "round=%d\n",
                       seed, top_k, incremental ? "incr" : "rebuild", threads,
                       r);
          ok = false;
        }
      }
      if (reference_log.empty()) {
        reference_log = log.jsonl();
      } else if (log.jsonl() != reference_log) {
        std::fprintf(stderr,
                     "  DECISION LOG DIVERGED seed=%d topk=%d %s threads=%d "
                     "(%zu vs %zu bytes)\n",
                     seed, top_k, incremental ? "incr" : "rebuild", threads,
                     log.jsonl().size(), reference_log.size());
        ok = false;
      }
    }
  }
  std::printf(
      "sched  seed=%-4d threads={...} topk=%d %-6s jobs=%-5d churn=%.0f%% "
      "rounds=%d %s\n",
      seed, top_k, known ? "muri-s" : "muri-l", jobs, churn * 100, rounds,
      ok ? "ok" : "DIVERGED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto seeds = parse_int_list(flags.get("seeds"), {13, 99});
  const auto threads = parse_int_list(flags.get("threads"), {1, 4});
  const auto topks = parse_int_list(flags.get("topk"), {0, 8});
  const double churn = flags.get_double("churn", 0.05);
  const int jobs = flags.get_int("jobs", 200);
  const int rounds = flags.get_int("rounds", 16);
  const int sim_jobs = flags.get_int("sim-jobs", 160);

  bool ok = true;
  for (int seed : seeds) {
    for (int top_k : topks) {
      for (bool known : {false, true}) {
        ok = sched_level_check(seed, threads, top_k, known, churn, jobs,
                               rounds) &&
             ok;
        for (int t : threads) {
          ok = sim_level_check(seed, t, top_k, known, sim_jobs) && ok;
        }
      }
    }
  }
  std::printf("%s\n", ok ? "equivalence: all combinations bit-identical"
                         : "equivalence: DIVERGENCE DETECTED");
  return ok ? 0 : 1;
}
