// Fault-domain tests: injector determinism, worker-monitor blacklist
// policy, simulator crash/straggler integration, degraded-group
// continuation, and executor thread-death without deadlock.
#include <gtest/gtest.h>

#include <chrono>
#include <future>

#include "cluster/cluster.h"
#include "fault/fault.h"
#include "fault/monitor.h"
#include "runtime/executor.h"
#include "scheduler/baselines.h"
#include "scheduler/muri.h"
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

Trace complementary_trace(int copies = 1) {
  Trace t;
  t.name = "faulty";
  JobId id = 0;
  for (int c = 0; c < copies; ++c) {
    t.jobs.push_back(make_job(id++, ModelKind::kShuffleNet, 1, 0, 600));
    t.jobs.push_back(make_job(id++, ModelKind::kA2c, 1, 0, 600));
    t.jobs.push_back(make_job(id++, ModelKind::kGpt2, 1, 0, 600));
    t.jobs.push_back(make_job(id++, ModelKind::kVgg16, 1, 0, 600));
  }
  return t;
}

SimOptions small_cluster(int machines, int gpus) {
  SimOptions opt;
  opt.cluster.num_machines = machines;
  opt.cluster.gpus_per_machine = gpus;
  opt.schedule_interval = 60;
  opt.restart_penalty = 5;
  return opt;
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjector, DisabledByDefault) {
  FaultInjector inj(4, FaultInjectorOptions{});
  EXPECT_FALSE(inj.enabled());
  EXPECT_TRUE(inj.pop_until(1e12).empty());
}

TEST(FaultInjector, CrashRecoverAlternatesPerMachine) {
  FaultInjectorOptions fopt;
  fopt.machine_mtbf_hours = 0.5;
  fopt.machine_mttr_hours = 0.25;
  FaultInjector inj(2, fopt);
  ASSERT_TRUE(inj.enabled());
  std::vector<bool> up(2, true);
  Time last = 0;
  int downs = 0;
  for (const FaultEvent& e : inj.pop_until(48 * 3600.0)) {
    EXPECT_GE(e.time, last);  // nondecreasing timeline
    last = e.time;
    const auto m = static_cast<size_t>(e.machine);
    ASSERT_LT(m, up.size());
    if (e.kind == FaultEvent::Kind::kMachineDown) {
      EXPECT_TRUE(up[m]);  // strict down/up alternation per machine
      up[m] = false;
      ++downs;
    } else if (e.kind == FaultEvent::Kind::kMachineUp) {
      EXPECT_FALSE(up[m]);
      up[m] = true;
    }
  }
  EXPECT_GT(downs, 0);
}

TEST(FaultInjector, DeterministicAcrossInstances) {
  FaultInjectorOptions fopt;
  fopt.machine_mtbf_hours = 1.0;
  fopt.straggler_rate_per_hour = 2.0;
  FaultInjector a(3, fopt);
  FaultInjector b(3, fopt);
  const auto ea = a.pop_until(24 * 3600.0);
  const auto eb = b.pop_until(24 * 3600.0);
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_FALSE(ea.empty());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].machine, eb[i].machine);
    EXPECT_DOUBLE_EQ(ea[i].time, eb[i].time);
  }
}

TEST(FaultInjector, PerMachineStreamsAreIndependent) {
  // Growing the cluster must not reshuffle the event timelines of the
  // machines that were already there (per-machine RNG substreams).
  FaultInjectorOptions fopt;
  fopt.machine_mtbf_hours = 1.0;
  fopt.straggler_rate_per_hour = 1.0;
  FaultInjector small(2, fopt);
  FaultInjector big(5, fopt);
  auto events_for = [](std::vector<FaultEvent> all, MachineId m) {
    std::vector<FaultEvent> out;
    for (const FaultEvent& e : all) {
      if (e.machine == m) out.push_back(e);
    }
    return out;
  };
  const auto all_small = small.pop_until(24 * 3600.0);
  const auto all_big = big.pop_until(24 * 3600.0);
  for (MachineId m = 0; m < 2; ++m) {
    const auto es = events_for(all_small, m);
    const auto eb = events_for(all_big, m);
    ASSERT_EQ(es.size(), eb.size()) << "machine " << m;
    ASSERT_FALSE(es.empty()) << "machine " << m;
    for (size_t i = 0; i < es.size(); ++i) {
      EXPECT_EQ(es[i].kind, eb[i].kind);
      EXPECT_DOUBLE_EQ(es[i].time, eb[i].time);
    }
  }
}

TEST(FaultInjector, CrashClosesOpenStragglerWindow) {
  FaultInjectorOptions fopt;
  fopt.machine_mtbf_hours = 0.2;
  fopt.straggler_rate_per_hour = 20.0;
  fopt.straggler_duration_s = 3600;
  FaultInjector inj(1, fopt);
  bool straggling = false;
  for (const FaultEvent& e : inj.pop_until(72 * 3600.0)) {
    switch (e.kind) {
      case FaultEvent::Kind::kStragglerStart:
        EXPECT_FALSE(straggling);
        straggling = true;
        for (double f : e.slowdown) {
          EXPECT_GE(f, 1.0);
          EXPECT_LE(f, fopt.straggler_severity);
        }
        break;
      case FaultEvent::Kind::kStragglerEnd:
        EXPECT_TRUE(straggling);
        straggling = false;
        break;
      case FaultEvent::Kind::kMachineDown:
        // The window must already have been closed (End emitted first).
        EXPECT_FALSE(straggling);
        break;
      case FaultEvent::Kind::kMachineUp:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// WorkerMonitor

TEST(WorkerMonitor, BlacklistKicksInAfterThreshold) {
  WorkerMonitorOptions mopt;
  mopt.blacklist_after = 2;
  mopt.probation_s = 100;
  WorkerMonitor mon(2, mopt);

  // First failure/recovery cycle: below the threshold, rejoin at once.
  mon.on_failure(0, 10);
  EXPECT_EQ(mon.health(0), MachineHealth::kFailed);
  EXPECT_FALSE(mon.schedulable(0));
  mon.on_recovery(0, 20);
  EXPECT_EQ(mon.health(0), MachineHealth::kHealthy);
  EXPECT_TRUE(mon.schedulable(0));

  // Second failure reaches the threshold: recovery goes to probation.
  mon.on_failure(0, 30);
  mon.on_recovery(0, 40);
  EXPECT_EQ(mon.health(0), MachineHealth::kProbation);
  EXPECT_FALSE(mon.schedulable(0));
  EXPECT_DOUBLE_EQ(mon.next_probation_end(), 140.0);
  EXPECT_EQ(mon.schedulable_machines(), 1);  // machine 1 untouched

  // Surviving the window promotes it and clears the strike counter.
  EXPECT_TRUE(mon.end_probation(139.0).empty());
  const auto promoted = mon.end_probation(140.0);
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_EQ(promoted[0], 0);
  EXPECT_EQ(mon.health(0), MachineHealth::kHealthy);
  EXPECT_EQ(mon.failures(0), 0);
  EXPECT_EQ(mon.total_failures(), 2);

  // Crashes during probation do not reset the deadline or add strikes —
  // otherwise a machine with MTBF below the window is exiled forever.
  mon.on_failure(1, 0);
  mon.on_recovery(1, 1);
  mon.on_failure(1, 2);
  mon.on_recovery(1, 3);  // 2 strikes -> probation until 103
  ASSERT_EQ(mon.health(1), MachineHealth::kProbation);
  mon.on_failure(1, 50);  // crash while blacklisted
  EXPECT_EQ(mon.failures(1), 2);
  mon.on_recovery(1, 60);
  EXPECT_EQ(mon.health(1), MachineHealth::kProbation);
  EXPECT_DOUBLE_EQ(mon.next_probation_end(), 103.0);  // deadline unchanged
  mon.on_failure(1, 80);
  mon.on_recovery(1, 200);  // came back after the deadline: exile served
  EXPECT_EQ(mon.health(1), MachineHealth::kHealthy);
  EXPECT_EQ(mon.failures(1), 0);

  // Straggler windows only toggle healthy <-> degraded.
  mon.on_straggler(1, true);
  EXPECT_EQ(mon.health(1), MachineHealth::kDegraded);
  EXPECT_TRUE(mon.schedulable(1));
  mon.on_straggler(1, false);
  EXPECT_EQ(mon.health(1), MachineHealth::kHealthy);
}

// ---------------------------------------------------------------------------
// Cluster pool membership

TEST(Cluster, MachineAvailabilityShrinksAndRestoresPool) {
  Cluster cluster(ClusterSpec{2, 4});
  EXPECT_EQ(cluster.available_machines(), 2);
  EXPECT_EQ(cluster.available_gpus(), 8);

  std::vector<GpuId> gpus;
  ASSERT_TRUE(cluster.allocate(/*owner=*/7, 2, gpus));
  cluster.set_machine_available(0, false);
  cluster.set_machine_available(1, false);
  EXPECT_EQ(cluster.available_machines(), 0);
  EXPECT_EQ(cluster.available_gpus(), 0);
  EXPECT_EQ(cluster.free_gpus(), 0);
  EXPECT_FALSE(cluster.can_allocate(1));

  // Releasing onto a crashed machine must not resurrect capacity.
  cluster.release(7);
  EXPECT_EQ(cluster.free_gpus(), 0);

  cluster.set_machine_available(0, true);
  cluster.set_machine_available(1, true);
  EXPECT_EQ(cluster.available_machines(), 2);
  EXPECT_EQ(cluster.free_gpus(), 8);
  EXPECT_TRUE(cluster.can_allocate(8));
}

// ---------------------------------------------------------------------------
// Simulator integration

TEST(SimFaults, PerJobMtbfRequeuesAndFinishesEverything) {
  const Trace t = complementary_trace(2);
  SrsfScheduler srsf;
  SimOptions opt = small_cluster(1, 2);
  opt.durations_known = true;
  opt.mtbf_hours = 0.05;  // ~180 s between faults per running job
  const SimResult r = run_simulation(t, srsf, opt);
  EXPECT_EQ(r.finished_jobs, static_cast<int>(t.jobs.size()));
  EXPECT_EQ(r.unfinished_jobs, 0);
  EXPECT_GT(r.faults, 0);

  // The same trace without faults finishes no later on average.
  SrsfScheduler clean;
  SimOptions opt0 = opt;
  opt0.mtbf_hours = 0;
  const SimResult r0 = run_simulation(t, clean, opt0);
  EXPECT_LE(r0.avg_jct, r.avg_jct);
  EXPECT_EQ(r0.faults, 0);
}

TEST(SimFaults, MachineCrashEvictsRequeuesAndRecovers) {
  const Trace t = complementary_trace(3);
  SrsfScheduler srsf;
  SimOptions opt = small_cluster(2, 2);
  opt.durations_known = true;
  opt.machine_faults.machine_mtbf_hours = 0.1;   // ~360 s
  opt.machine_faults.machine_mttr_hours = 0.05;  // ~180 s
  const SimResult r = run_simulation(t, srsf, opt);
  EXPECT_EQ(r.finished_jobs, static_cast<int>(t.jobs.size()));
  EXPECT_EQ(r.unfinished_jobs, 0);
  EXPECT_GT(r.machine_failures, 0);
  EXPECT_GT(r.evictions, 0);
}

TEST(SimFaults, StragglersInflateResidentStageTime) {
  const Trace t = complementary_trace(2);
  SrsfScheduler srsf;
  SimOptions opt = small_cluster(2, 2);
  opt.durations_known = true;
  opt.machine_faults.straggler_rate_per_hour = 30.0;
  opt.machine_faults.straggler_duration_s = 600;
  opt.machine_faults.straggler_severity = 3.0;
  const SimResult r = run_simulation(t, srsf, opt);
  EXPECT_EQ(r.finished_jobs, static_cast<int>(t.jobs.size()));
  EXPECT_GT(r.straggler_seconds, 0);

  SrsfScheduler clean;
  SimOptions opt0 = opt;
  opt0.machine_faults = FaultInjectorOptions{};
  const SimResult r0 = run_simulation(t, clean, opt0);
  EXPECT_DOUBLE_EQ(r0.straggler_seconds, 0);
  EXPECT_LE(r0.avg_jct, r.avg_jct);
}

TEST(SimFaults, GroupSurvivorsContinueDegraded) {
  // Four complementary jobs interleave on one GPU under Muri; a per-job
  // fault kills one member mid-round and the survivors must keep running
  // as a re-planned degraded group instead of stalling.
  const Trace t = complementary_trace(1);
  MuriOptions mopt;
  mopt.durations_known = true;
  MuriScheduler muri(mopt);
  SimOptions opt = small_cluster(1, 1);
  opt.durations_known = true;
  opt.mtbf_hours = 0.05;
  const SimResult r = run_simulation(t, muri, opt);
  EXPECT_EQ(r.finished_jobs, 4);
  EXPECT_GT(r.faults, 0);
  EXPECT_GT(r.degraded_group_seconds, 0);
}

TEST(SimFaults, ZeroKnobRunMatchesFaultFreeRunExactly) {
  // All fault machinery compiled in but switched off must leave every
  // metric bit-identical to a run of the pre-fault configuration.
  const Trace t = complementary_trace(2);
  auto run = [&t](const SimOptions& opt) {
    SrsfScheduler s;
    return run_simulation(t, s, opt);
  };
  SimOptions base = small_cluster(2, 2);
  base.durations_known = true;
  SimOptions wired = base;
  wired.monitor.blacklist_after = 1;  // policy knobs alone must not matter
  wired.monitor.probation_s = 10;
  wired.machine_faults.seed = 99;
  const SimResult a = run(base);
  const SimResult b = run(wired);
  EXPECT_EQ(a.avg_jct, b.avg_jct);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.p99_jct, b.p99_jct);
  EXPECT_EQ(b.machine_failures, 0);
  EXPECT_EQ(b.evictions, 0);
  EXPECT_EQ(b.straggler_seconds, 0);
  EXPECT_EQ(b.degraded_group_seconds, 0);
}

// ---------------------------------------------------------------------------
// Live executor

TEST(ExecFaults, KilledMemberDropsFromBarrierWithoutDeadlock) {
  using runtime::ExecJobSpec;
  using runtime::ExecOptions;
  std::vector<ExecJobSpec> specs(3);
  specs[0] = {"victim", {0.5, 0.5, 0.5, 0.5}, 0, /*kill_after=*/0.05};
  specs[1] = {"survivor-a", {0.5, 0.5, 0.5, 0.5}, 1};
  specs[2] = {"survivor-b", {0.5, 0.5, 0.5, 0.5}, 2};
  ExecOptions opt;
  opt.time_scale = 0.01;
  opt.run_for = 0.4;
  opt.coordinate = true;

  // Run on a helper thread so a barrier deadlock fails the test instead of
  // hanging the suite.
  auto fut = std::async(std::launch::async,
                        [&] { return run_group(specs, opt); });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(20)),
            std::future_status::ready)
      << "run_group deadlocked after mid-run thread death";
  const auto result = fut.get();
  ASSERT_EQ(result.jobs.size(), 3u);
  EXPECT_EQ(result.killed_jobs, 1);
  EXPECT_FALSE(result.jobs[0].completed);
  // Survivors keep rotating after the victim drops out.
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_TRUE(result.jobs[i].completed) << result.jobs[i].name;
    EXPECT_GT(result.jobs[i].iterations, 0) << result.jobs[i].name;
  }
}

TEST(ExecFaults, WholeGroupKilledStillReturns) {
  using runtime::ExecJobSpec;
  using runtime::ExecOptions;
  std::vector<ExecJobSpec> specs(2);
  specs[0] = {"a", {0.5, 0.5, 0.5, 0.5}, 0, 0.03};
  specs[1] = {"b", {0.5, 0.5, 0.5, 0.5}, 1, 0.05};
  ExecOptions opt;
  opt.time_scale = 0.01;
  opt.run_for = 0.5;
  opt.coordinate = true;
  auto fut = std::async(std::launch::async,
                        [&] { return run_group(specs, opt); });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(20)),
            std::future_status::ready);
  const auto result = fut.get();
  EXPECT_EQ(result.killed_jobs, 2);
}

}  // namespace
}  // namespace muri
