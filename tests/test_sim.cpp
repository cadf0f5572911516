#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "job/trace.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "scheduler/baselines.h"
#include "scheduler/muri.h"
#include "sim/engine.h"
#include "sim/simulator.h"

namespace muri {
namespace {

Job make_job(JobId id, ModelKind m, int gpus, Time submit, double solo_secs) {
  Job j;
  j.id = id;
  j.model = m;
  j.num_gpus = gpus;
  j.submit_time = submit;
  j.profile = model_profile(m, gpus);
  j.iterations = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(solo_secs / j.profile.iteration_time()));
  return j;
}

Trace tiny_trace() {
  Trace t;
  t.name = "tiny";
  t.jobs.push_back(make_job(0, ModelKind::kShuffleNet, 1, 0, 600));
  t.jobs.push_back(make_job(1, ModelKind::kA2c, 1, 0, 600));
  t.jobs.push_back(make_job(2, ModelKind::kGpt2, 1, 0, 600));
  t.jobs.push_back(make_job(3, ModelKind::kVgg16, 1, 0, 600));
  return t;
}

SimOptions small_cluster(int machines = 1, int gpus = 2) {
  SimOptions opt;
  opt.cluster.num_machines = machines;
  opt.cluster.gpus_per_machine = gpus;
  opt.schedule_interval = 60;
  opt.restart_penalty = 5;
  return opt;
}

TEST(Sim, SingleJobRunsForItsSoloDuration) {
  Trace t;
  t.name = "one";
  t.jobs.push_back(make_job(0, ModelKind::kBert, 1, 0, 1000));
  FifoScheduler fifo;
  SimOptions opt = small_cluster();
  const SimResult r = run_simulation(t, fifo, opt);
  EXPECT_EQ(r.finished_jobs, 1);
  EXPECT_EQ(r.unfinished_jobs, 0);
  // JCT = solo duration + restart penalty, up to iteration quantization.
  const double expected = t.jobs[0].solo_duration() + opt.restart_penalty;
  EXPECT_NEAR(r.avg_jct, expected, 1.0);
  EXPECT_NEAR(r.makespan, expected, 1.0);
}

TEST(Sim, AllJobsComplete) {
  const Trace t = tiny_trace();
  for (int pass = 0; pass < 2; ++pass) {
    FifoScheduler fifo;
    SrsfScheduler srsf;
    Scheduler& s = pass == 0 ? static_cast<Scheduler&>(fifo)
                             : static_cast<Scheduler&>(srsf);
    SimOptions opt = small_cluster();
    opt.durations_known = pass == 1;
    const SimResult r = run_simulation(t, s, opt);
    EXPECT_EQ(r.finished_jobs, 4) << s.name();
    EXPECT_GT(r.avg_jct, 0) << s.name();
    EXPECT_GE(r.makespan, 0) << s.name();
    EXPECT_GE(r.p99_jct, r.avg_jct * 0.5) << s.name();
  }
}

TEST(Sim, JctNeverBelowSoloDuration) {
  const Trace t = tiny_trace();
  FifoScheduler fifo;
  const SimResult r = run_simulation(t, fifo, small_cluster());
  ASSERT_EQ(r.jcts.size(), 4u);
  // Every JCT is at least the job's pure compute time.
  for (double jct : r.jcts) {
    EXPECT_GE(jct, 500.0);  // all jobs ~600s solo
  }
}

TEST(Sim, MuriInterleavesComplementaryJobsFasterThanFifo) {
  // Four complementary single-GPU jobs on ONE GPU: FIFO serializes them;
  // Muri interleaves all four on the same GPU.
  Trace t = tiny_trace();
  SimOptions opt = small_cluster(1, 1);

  FifoScheduler fifo;
  const SimResult r_fifo = run_simulation(t, fifo, opt);

  MuriOptions mopt;
  mopt.durations_known = true;
  MuriScheduler muri(mopt);
  SimOptions opt_known = opt;
  opt_known.durations_known = true;
  const SimResult r_muri = run_simulation(t, muri, opt_known);

  EXPECT_EQ(r_fifo.finished_jobs, 4);
  EXPECT_EQ(r_muri.finished_jobs, 4);
  EXPECT_LT(r_muri.makespan, r_fifo.makespan * 0.55)
      << "interleaving four complementary jobs should be ≥ ~2x faster";
  EXPECT_LT(r_muri.avg_jct, r_fifo.avg_jct);
}

TEST(Sim, UncoordinatedSharingSlowsContendingJobs) {
  // Two storage-bound jobs co-located by AntMan contend on storage; their
  // JCT must exceed their solo duration significantly (the §2.1 example).
  Trace t;
  t.name = "contend";
  t.jobs.push_back(make_job(0, ModelKind::kShuffleNet, 1, 0, 300));
  t.jobs.push_back(make_job(1, ModelKind::kShuffleNet, 1, 0, 300));
  AntManScheduler antman;
  SimOptions opt = small_cluster(1, 1);
  const SimResult r = run_simulation(t, antman, opt);
  EXPECT_EQ(r.finished_jobs, 2);
  for (double jct : r.jcts) {
    EXPECT_GT(jct, 300 * 1.5);
  }
}

TEST(Sim, RestartPenaltyDelaysCompletion) {
  Trace t;
  t.name = "penalty";
  t.jobs.push_back(make_job(0, ModelKind::kBert, 1, 0, 500));
  FifoScheduler fifo;
  SimOptions opt = small_cluster();
  opt.restart_penalty = 100;
  const SimResult with_penalty = run_simulation(t, fifo, opt);
  opt.restart_penalty = 0;
  FifoScheduler fifo2;
  const SimResult without = run_simulation(t, fifo2, opt);
  EXPECT_NEAR(with_penalty.avg_jct - without.avg_jct, 100, 1.0);
}

TEST(Sim, QueueMetricsPositiveUnderContention) {
  // Many jobs on one GPU: queue builds up.
  Trace t;
  t.name = "queue";
  for (int i = 0; i < 8; ++i) {
    t.jobs.push_back(make_job(i, ModelKind::kBert, 1, 0, 400));
  }
  FifoScheduler fifo;
  const SimResult r = run_simulation(t, fifo, small_cluster(1, 1));
  EXPECT_GT(r.avg_queue_length, 1.0);
  EXPECT_GT(r.avg_blocking_index, 0.0);
}

TEST(Sim, UtilizationBoundedAndGpuBusyWhenSaturated) {
  Trace t;
  t.name = "util";
  for (int i = 0; i < 4; ++i) {
    t.jobs.push_back(make_job(i, ModelKind::kGpt2, 1, 0, 2000));
  }
  FifoScheduler fifo;
  SimOptions opt = small_cluster(1, 2);
  const SimResult r = run_simulation(t, fifo, opt);
  for (int j = 0; j < kNumResources; ++j) {
    EXPECT_GE(r.avg_utilization[static_cast<size_t>(j)], 0.0);
    EXPECT_LE(r.avg_utilization[static_cast<size_t>(j)], 1.0);
  }
  // GPT-2 is GPU-bound: GPU utilization dominates.
  EXPECT_GT(r.avg_utilization[static_cast<size_t>(Resource::kGpu)],
            r.avg_utilization[static_cast<size_t>(Resource::kStorage)]);
}

TEST(Sim, SeriesRecordedWhenRequested) {
  Trace t = tiny_trace();
  FifoScheduler fifo;
  SimOptions opt = small_cluster();
  opt.record_series = true;
  const SimResult r = run_simulation(t, fifo, opt);
  EXPECT_FALSE(r.queue_series.empty());
  EXPECT_FALSE(r.util_series[static_cast<size_t>(Resource::kGpu)].empty());
  FifoScheduler fifo2;
  opt.record_series = false;
  const SimResult r2 = run_simulation(t, fifo2, opt);
  EXPECT_TRUE(r2.queue_series.empty());
}

TEST(Sim, MaxTimeStopsEarly) {
  Trace t;
  t.name = "long";
  t.jobs.push_back(make_job(0, ModelKind::kBert, 1, 0, 100000));
  FifoScheduler fifo;
  SimOptions opt = small_cluster();
  opt.max_time = 500;
  const SimResult r = run_simulation(t, fifo, opt);
  EXPECT_EQ(r.finished_jobs, 0);
  EXPECT_EQ(r.unfinished_jobs, 1);
}

TEST(Sim, MultiGpuJobsRespectMachineGranularity) {
  Trace t;
  t.name = "multigpu";
  t.jobs.push_back(make_job(0, ModelKind::kVgg16, 16, 0, 600));
  t.jobs.push_back(make_job(1, ModelKind::kBert, 8, 0, 600));
  t.jobs.push_back(make_job(2, ModelKind::kGpt2, 1, 0, 600));
  SrsfScheduler srsf;
  SimOptions opt;
  opt.cluster.num_machines = 3;
  opt.cluster.gpus_per_machine = 8;
  opt.durations_known = true;
  const SimResult r = run_simulation(t, srsf, opt);
  EXPECT_EQ(r.finished_jobs, 3);
}

TEST(Sim, ArrivalOrderRespected) {
  // A job that arrives later cannot finish before an identical earlier
  // one under FIFO.
  Trace t;
  t.name = "order";
  t.jobs.push_back(make_job(0, ModelKind::kBert, 1, 0, 300));
  t.jobs.push_back(make_job(1, ModelKind::kBert, 1, 1000, 300));
  FifoScheduler fifo;
  const SimResult r = run_simulation(t, fifo, small_cluster(1, 1));
  ASSERT_EQ(r.jcts.size(), 2u);
  EXPECT_EQ(r.finished_jobs, 2);
}

TEST(Sim, EmptyTraceIsNoOp) {
  Trace t;
  t.name = "empty";
  FifoScheduler fifo;
  const SimResult r = run_simulation(t, fifo, small_cluster());
  EXPECT_EQ(r.finished_jobs, 0);
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

TEST(Sim, SchedulerAccountingPopulated) {
  Trace t = tiny_trace();
  MuriOptions mopt;
  mopt.durations_known = true;
  MuriScheduler muri(mopt);
  SimOptions opt = small_cluster(1, 1);
  opt.durations_known = true;
  const SimResult r = run_simulation(t, muri, opt);
  EXPECT_GT(r.scheduler_invocations, 0);
  EXPECT_GE(r.scheduler_wall_ms, 0.0);
  EXPECT_GT(r.profiler_sessions, 0);
}

TEST(Sim, DeterministicRepeatability) {
  const Trace t = standard_trace(1);
  Trace head;
  head.name = "head";
  head.jobs.assign(t.jobs.begin(), t.jobs.begin() + 60);
  SimOptions opt;
  opt.cluster.num_machines = 2;
  opt.cluster.gpus_per_machine = 8;
  opt.durations_known = true;

  MuriOptions mopt;
  mopt.durations_known = true;
  MuriScheduler m1(mopt), m2(mopt);
  const SimResult a = run_simulation(head, m1, opt);
  const SimResult b = run_simulation(head, m2, opt);
  EXPECT_DOUBLE_EQ(a.avg_jct, b.avg_jct);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.p99_jct, b.p99_jct);
}

// ---------------------------------------------------------------------------
// ExecutionEngine: the live-job list behind every per-step loop.

// Records committed since `from` (the log's record count at some earlier
// point), parsed.
std::vector<obs::JsonValue> records_since(const obs::DecisionLog& log,
                                          std::int64_t from) {
  std::vector<obs::DecisionRecord> all;
  std::string error;
  EXPECT_TRUE(obs::parse_decision_log(log.jsonl(), all, &error)) << error;
  std::vector<obs::JsonValue> out;
  for (size_t i = static_cast<size_t>(from); i < all.size(); ++i) {
    out.push_back(std::move(all[i].value));
  }
  return out;
}

std::vector<JobId> ids_in_phase(const ExecutionEngine& engine,
                                JobPhase phase) {
  std::vector<JobId> out;
  for (const JobStatus& st : engine.list_jobs()) {
    if (st.phase == phase) out.push_back(st.id);
  }
  return out;
}

// The engine's counters agree with a count over list_jobs() phases.
void expect_counts_match(const ExecutionEngine& engine,
                         const std::string& step) {
  const auto queued = ids_in_phase(engine, JobPhase::kQueued).size();
  const auto running = ids_in_phase(engine, JobPhase::kRunning).size();
  EXPECT_EQ(static_cast<size_t>(engine.queued_jobs()), queued) << step;
  EXPECT_EQ(static_cast<size_t>(engine.running_jobs()), running) << step;
  EXPECT_EQ(static_cast<size_t>(engine.active_jobs()), queued + running)
      << step;
}

struct Arrival {
  Job job;
  double deadline_s = 0;
};

// What one engine run covered, for the test to assert its edge cases.
struct LiveListRun {
  int finishes = 0;
  int same_instant_finishes = 0;  // settles that finished >= 2 jobs
  int degraded = 0;               // faults on a grouped member
  int deadline_cancels = 0;
  int client_cancels = 0;
  int wait_records = 0;
};

// Drives an engine the way run_simulation does (progress, arrivals,
// settle, round on a fixed interval), cancels `cancel_id` from outside at
// the first step at or after `cancel_at`, and checks after every step:
// the counters match list_jobs(); the finish records of one settle() list
// ids ascending; and a round's wait record lists exactly the queued ids,
// ascending, which only holds when no queued job is missing from the
// engine's live list.
LiveListRun drive_and_check(const std::vector<Arrival>& arrivals,
                            Scheduler& scheduler, SimOptions options,
                            JobId cancel_id, Time cancel_at) {
  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  obs::DecisionLog log;
  options.decisions = &log;
  ExecutionEngine engine(scheduler, options, 0);
  LiveListRun run;
  size_t next = 0;
  Time last_round = -options.schedule_interval;
  bool cancelled = false;
  for (int step = 0; step < 100000; ++step) {
    const std::string at = "step " + std::to_string(step);
    if (next == arrivals.size() && engine.active_jobs() == 0) break;
    const Time t_arrival =
        next < arrivals.size() ? arrivals[next].job.submit_time : kInf;
    const Time t_round = last_round + options.schedule_interval;
    engine.progress_to(std::max(
        engine.now(),
        std::min({t_arrival, engine.next_event_time(), t_round})));
    expect_counts_match(engine, at + " progress_to");

    if (!cancelled && engine.now() >= cancel_at) {
      cancelled = true;
      EXPECT_TRUE(engine.cancel(cancel_id, engine.now(), "client")) << at;
      ++run.client_cancels;
      expect_counts_match(engine, at + " cancel");
    }
    while (next < arrivals.size() &&
           arrivals[next].job.submit_time <= engine.now()) {
      engine.submit(arrivals[next].job, "", arrivals[next].deadline_s);
      ++next;
      expect_counts_match(engine, at + " submit");
    }

    const std::int64_t before_settle = log.records();
    engine.settle();
    expect_counts_match(engine, at + " settle");
    std::vector<JobId> finished;
    for (const obs::JsonValue& r : records_since(log, before_settle)) {
      const std::string& type = r.at("type").string;
      if (type == "finish") {
        finished.push_back(static_cast<JobId>(r.at("job").number));
      } else if (type == "degraded_continue") {
        ++run.degraded;
      }
    }
    // Strictly ascending.
    EXPECT_EQ(std::adjacent_find(finished.begin(), finished.end(),
                                 std::greater_equal<>()),
              finished.end())
        << at;
    run.finishes += static_cast<int>(finished.size());
    if (finished.size() >= 2) ++run.same_instant_finishes;

    if (engine.now() >= t_round - 1e-9) {
      const std::int64_t before_round = log.records();
      engine.run_round();
      last_round = engine.now();
      expect_counts_match(engine, at + " run_round");
      const std::vector<JobId> queued =
          ids_in_phase(engine, JobPhase::kQueued);
      std::vector<JobId> waiting;
      for (const obs::JsonValue& r : records_since(log, before_round)) {
        const std::string& type = r.at("type").string;
        if (type == "job_cancel" && r.at("reason").string == "start_deadline") {
          ++run.deadline_cancels;
        } else if (type == "wait") {
          ++run.wait_records;
          for (const obs::JsonValue& id : r.at("job").array) {
            waiting.push_back(static_cast<JobId>(id.number));
          }
        }
      }
      EXPECT_EQ(waiting, queued) << at;
    }
  }
  EXPECT_EQ(engine.active_jobs(), 0);
  EXPECT_EQ(run.finishes, static_cast<int>(engine.finished_jobs()));
  return run;
}

TEST(EngineLiveList, CountsAndRecordOrderHoldThroughEveryStep) {
  // One machine with two GPUs under Muri with job faults. Ids arrive out
  // of order. Jobs 2 and 3 are twins that share one interleaved group and
  // finish at one instant (adjacent ids, so a loop that erased the first
  // from the list it walks would skip the second); job 4 wants both GPUs,
  // ranks last and misses its start deadline; job 1 is cancelled from
  // outside while it runs.
  std::vector<Arrival> arrivals;
  auto add = [&](JobId id, ModelKind m, int gpus, Time submit,
                 double solo_secs, double deadline_s = 0) {
    arrivals.push_back({make_job(id, m, gpus, submit, solo_secs), deadline_s});
  };
  add(7, ModelKind::kShuffleNet, 1, 0, 900);
  add(6, ModelKind::kA2c, 1, 0, 900);
  add(5, ModelKind::kGpt2, 1, 0, 900);
  add(4, ModelKind::kVgg16, 2, 0, 20000, /*deadline_s=*/100);
  add(1, ModelKind::kVgg16, 1, 30, 3000);
  add(3, ModelKind::kResNet18, 1, 60, 300);
  add(2, ModelKind::kResNet18, 1, 60, 300);
  add(0, ModelKind::kA2c, 1, 90, 600);

  MuriOptions mopt;
  mopt.durations_known = true;
  MuriScheduler muri(mopt);
  SimOptions opt = small_cluster(1, 2);
  opt.durations_known = true;
  opt.mtbf_hours = 0.2;  // faults hit grouped members
  const LiveListRun run =
      drive_and_check(arrivals, muri, opt, /*cancel_id=*/1, /*cancel_at=*/400);

  EXPECT_EQ(run.client_cancels, 1);
  EXPECT_EQ(run.deadline_cancels, 1);
  EXPECT_EQ(run.finishes, 6);
  EXPECT_GE(run.same_instant_finishes, 1);
  EXPECT_GE(run.degraded, 1);
  EXPECT_GT(run.wait_records, 0);
}


// ---------------------------------------------------------------------------
// ExecutionEngine: per-job fault substreams over a long sequence of draws.

// 64-bit FNV-1a over the bytes of `s`.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(EngineFaultStream, LongRestartSequencesKeepTheirFaultTimes) {
  // One long job among short ones, under Muri-L with a 72 s job MTBF: the
  // long job is (re)placed hundreds of times, so its fault substream is
  // drawn far past its first 156 outputs. The digests pin every fault
  // time of every job through the decision log and the result.
  Trace t;
  t.name = "fault-stream";
  t.jobs.push_back(make_job(0, ModelKind::kVgg16, 1, 0, 20000));
  t.jobs.push_back(make_job(1, ModelKind::kShuffleNet, 1, 0, 900));
  t.jobs.push_back(make_job(2, ModelKind::kA2c, 1, 30, 900));
  t.jobs.push_back(make_job(3, ModelKind::kGpt2, 1, 60, 900));
  t.jobs.push_back(make_job(4, ModelKind::kResNet18, 1, 90, 600));
  obs::DecisionLog log;
  SimOptions opt = small_cluster(1, 2);
  opt.mtbf_hours = 0.02;
  opt.decisions = &log;
  MuriScheduler muri;
  const SimResult result = run_simulation(t, muri, opt);
  EXPECT_EQ(result.finished_jobs, 5);

  // Each fault ends a stint that began with a draw, and each regroup
  // restart is a draw of its own, so faults + restarts bounds the draws
  // of a job from below.
  std::vector<int> draws_at_least(t.jobs.size(), 0);
  for (const obs::JsonValue& r : records_since(log, 0)) {
    const std::string& type = r.at("type").string;
    if (type == "fault" || type == "restart") {
      ++draws_at_least[static_cast<size_t>(r.at("job").number)];
    }
  }
  EXPECT_GT(draws_at_least[0], 156);

  EXPECT_EQ(fnv1a(log.jsonl()), 0x559023d351aac616ULL)
      << std::hex << fnv1a(log.jsonl());
  EXPECT_EQ(fnv1a(result_fingerprint(result)), 0xd4d469d571c2da85ULL)
      << std::hex << fnv1a(result_fingerprint(result));
}

// ---------------------------------------------------------------------------
// ExecutionEngine: the running-group table under every fault path.

// Keeps every committed record line, for a driver that reacts to a round's
// placements while the run goes on.
class LineSink : public obs::DecisionLog::Sink {
 public:
  void on_record(std::string_view line) override { lines.emplace_back(line); }
  std::vector<std::string> lines;
};

obs::JsonValue parse_line(const std::string& line) {
  obs::JsonValue v;
  std::string error;
  EXPECT_TRUE(obs::parse_json(line, v, &error)) << error;
  return v;
}

std::vector<JobId> job_ids(const obs::JsonValue& array) {
  std::vector<JobId> out;
  for (const obs::JsonValue& id : array.array) {
    out.push_back(static_cast<JobId>(id.number));
  }
  return out;
}

// What one run did to the members of multi-job groups, rebuilt from its
// records: each placement or degraded_continue opens a group, and a job
// leaves its group's live set when it is preempted, evicted, faults,
// finishes or is cancelled.
struct GroupPaths {
  int grouped_evictions = 0;   // evicted while a partner was still placed
  int uncoordinated_degraded = 0;  // re-plan of an uncoordinated group
  int grouped_finishes = 0;
  int grouped_cancels = 0;
};

GroupPaths group_paths(const std::vector<std::string>& lines) {
  struct Group {
    std::string mode;
    std::vector<JobId> live;
  };
  std::vector<Group> groups;
  std::map<JobId, size_t> group_of;
  GroupPaths out;
  const auto live_partners = [&](JobId id) -> size_t {
    const auto it = group_of.find(id);
    return it == group_of.end() ? 0 : groups[it->second].live.size() - 1;
  };
  const auto leave = [&](JobId id) {
    const auto it = group_of.find(id);
    if (it == group_of.end()) return;
    auto& live = groups[it->second].live;
    live.erase(std::find(live.begin(), live.end(), id));
    group_of.erase(it);
  };
  const auto open = [&](const std::vector<JobId>& ids,
                        const std::string& mode) {
    for (JobId id : ids) leave(id);
    groups.push_back({mode, ids});
    for (JobId id : ids) group_of[id] = groups.size() - 1;
  };
  for (const std::string& line : lines) {
    const obs::JsonValue r = parse_line(line);
    const std::string& type = r.at("type").string;
    if (type == "placement") {
      open(job_ids(r.at("jobs")), r.at("mode").string);
    } else if (type == "degraded_continue") {
      const std::vector<JobId> ids = job_ids(r.at("jobs"));
      if (groups[group_of.at(ids.front())].mode == "uncoordinated") {
        ++out.uncoordinated_degraded;
      }
      open(ids, r.at("mode").string);
    } else if (type == "evict" || type == "preempt" || type == "fault" ||
               type == "finish" || type == "job_cancel") {
      const auto id = static_cast<JobId>(r.at("job").number);
      if (live_partners(id) > 0) {
        if (type == "evict") ++out.grouped_evictions;
        if (type == "finish") ++out.grouped_finishes;
        if (type == "job_cancel") ++out.grouped_cancels;
      }
      leave(id);
    }
  }
  return out;
}

TEST(EngineGroupTable, AntManUnderFaultsKeepsItsRecordsAndResult) {
  // The Muri-L fault settings of the golden run, under AntMan's
  // uncoordinated sharing, with a client cancel of a grouped member every
  // 25th round. The digests pin the decision stream and the result, so
  // any change to how running groups are tracked shows up here.
  PhillyTraceOptions topt;
  topt.name = "golden";
  topt.num_jobs = 300;
  topt.seed = 13;
  topt.jobs_per_hour = 60;
  topt.duration_log_mean = 6.0;
  topt.max_duration = 4 * 3600;
  // All at t = 0, as in the fault-free AntMan golden run: a contended
  // queue is what makes AntMan share GPUs.
  const Trace trace = zero_arrivals(generate_philly_like(topt));

  SimOptions opt;
  opt.cluster.num_machines = 8;
  opt.cluster.gpus_per_machine = 8;
  opt.schedule_interval = 120;
  opt.restart_penalty = 10;
  opt.mtbf_hours = 2.0;
  opt.machine_faults.machine_mtbf_hours = 6.0;
  opt.machine_faults.machine_mttr_hours = 0.2;
  opt.machine_faults.straggler_rate_per_hour = 0.5;
  obs::DecisionLog log;
  LineSink sink;
  log.set_subscriber(&sink);
  opt.decisions = &log;
  AntManScheduler antman;

  // The simulator's loop (sim/simulator.cpp), plus the cancels.
  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  const size_t n = trace.jobs.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return trace.jobs[a].submit_time < trace.jobs[b].submit_time;
  });
  const Time start = trace.jobs[order[0]].submit_time;
  ExecutionEngine engine(antman, opt, start);
  engine.observe_metrics();
  size_t next = 0;
  Time last_round = start - opt.schedule_interval;
  bool dirty = true;
  int cancels = 0;
  while (engine.active_jobs() > 0 || next < n) {
    const Time t_arrival =
        next < n ? trace.jobs[order[next]].submit_time : kInf;
    const Time t_round =
        dirty ? std::max(engine.now(), last_round + opt.schedule_interval)
              : kInf;
    Time t_next = std::min({t_arrival, engine.next_event_time(), t_round});
    if (t_next == kInf) {
      dirty = true;
      t_next = engine.now();
    }
    ASSERT_LT(t_next, 30 * 24 * 3600.0) << "run does not end";
    engine.progress_to(t_next);
    const Time now = engine.now();
    while (next < n && trace.jobs[order[next]].submit_time <= now) {
      engine.submit(trace.jobs[order[next++]]);
    }
    engine.settle();
    dirty = dirty || engine.dirty();
    if (dirty) engine.refresh_utilization();
    if (dirty && now >= last_round + opt.schedule_interval - 1e-9) {
      const size_t round_begin = sink.lines.size();
      engine.run_round();
      last_round = now;
      dirty = engine.queued_jobs() > 0;
      if (engine.rounds_run() % 25 == 0 && cancels < 4) {
        for (size_t i = round_begin; i < sink.lines.size(); ++i) {
          const obs::JsonValue r = parse_line(sink.lines[i]);
          if (r.at("type").string != "placement" ||
              r.at("jobs").array.size() < 2) {
            continue;
          }
          const auto id = static_cast<JobId>(r.at("jobs").array[0].number);
          ASSERT_TRUE(engine.cancel(id, now, "client"));
          ++cancels;
          dirty = true;
          break;
        }
      }
    }
    engine.observe_metrics();
  }
  SimResult result;
  result.scheduler_name = antman.name();
  result.trace_name = trace.name;
  engine.finalize(engine.now(), result);
  result.unfinished_jobs = static_cast<int>(n) - result.finished_jobs;
  result.makespan = engine.now() - start;

  const GroupPaths paths = group_paths(sink.lines);
  EXPECT_GT(paths.grouped_evictions, 0);
  EXPECT_GT(paths.uncoordinated_degraded, 0);
  EXPECT_GT(paths.grouped_finishes, 0);
  EXPECT_GT(paths.grouped_cancels, 0);
  EXPECT_GT(cancels, 0);

  EXPECT_EQ(fnv1a(log.jsonl()), 0x5bce775bf148c255ULL) << std::hex << fnv1a(log.jsonl());
  EXPECT_EQ(fnv1a(result_fingerprint(result)), 0x9fb1839567b94be8ULL)
      << std::hex << fnv1a(result_fingerprint(result));
}

}  // namespace
}  // namespace muri
