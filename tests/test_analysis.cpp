// Utilization analytics tests: the obs/analysis report must reconstruct —
// from the exported trace alone — what the simulator measured online:
// per-resource busy seconds and per-group realized interleaving
// efficiency γ (matching the schedule-time prediction on noise-free
// timings). Plus renderer byte-stability and executor-trace coverage. The
// per-job JCT breakdown is checked against the jobtrace fold in
// test_jobtrace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "job/model.h"
#include "obs/analysis.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

namespace muri {
namespace {

using obs::JsonValue;
using obs::Tracer;
using obs::UtilizationReport;

// Noise-free execution: every inflation knob off, no faults, no restart
// gate — realized γ must then track the schedule-time prediction.
SimOptions noise_free_options() {
  SimOptions opt;
  opt.cluster.num_machines = 2;
  opt.cluster.gpus_per_machine = 2;
  opt.schedule_interval = 60;
  opt.durations_known = true;
  opt.restart_penalty = 0;
  opt.exec.alpha = 0;
  opt.exec.gamma_penalty = 0;
  opt.exec.cascade_penalty = 0;
  opt.exec.contention_penalty = 0;
  opt.exec.misplan_penalty = 0;
  return opt;
}

Trace model_trace() {
  Trace t;
  t.name = "analysis";
  JobId id = 0;
  auto add = [&](ModelKind m, Time submit, double solo_secs) {
    Job j;
    j.id = id++;
    j.model = m;
    j.num_gpus = 1;
    j.submit_time = submit;
    j.profile = model_profile(m, 1);
    j.iterations = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(solo_secs / j.profile.iteration_time()));
    t.jobs.push_back(j);
  };
  for (int c = 0; c < 2; ++c) {
    add(ModelKind::kShuffleNet, 0, 900);
    add(ModelKind::kA2c, 0, 900);
    add(ModelKind::kGpt2, 60, 300);
    add(ModelKind::kVgg16, 60, 300);
  }
  return t;
}

struct TracedRun {
  SimResult result;
  std::string trace_json;
};

TracedRun run_noise_free() {
  Tracer tracer;
  tracer.set_enabled(true);
  MuriOptions mopt;
  mopt.durations_known = true;
  MuriScheduler sched(mopt);
  SimOptions opt = noise_free_options();
  opt.tracer = &tracer;
  TracedRun out;
  out.result = run_simulation(model_trace(), sched, opt);
  out.trace_json = tracer.chrome_trace_json();
  return out;
}

UtilizationReport analyze(const std::string& json) {
  JsonValue root;
  std::string err;
  EXPECT_TRUE(obs::parse_json(json, root, &err)) << err;
  UtilizationReport report;
  EXPECT_TRUE(obs::analyze_trace(root, report, &err)) << err;
  return report;
}

TEST(Analysis, RejectsNonTraceAcceptsEmptyTrace) {
  JsonValue root;
  UtilizationReport report;
  std::string err;
  ASSERT_TRUE(obs::parse_json("[1, 2]", root));
  EXPECT_FALSE(obs::analyze_trace(root, report, &err));
  EXPECT_FALSE(err.empty());
  ASSERT_TRUE(obs::parse_json("{\"a\": 1}", root));
  EXPECT_FALSE(obs::analyze_trace(root, report, &err));
  ASSERT_TRUE(obs::parse_json("{\"traceEvents\": []}", root));
  EXPECT_TRUE(obs::analyze_trace(root, report, &err)) << err;
  EXPECT_TRUE(report.empty());
}

TEST(Analysis, NoiseFreeRealizedMatchesPredicted) {
  const TracedRun run = run_noise_free();
  const UtilizationReport report = analyze(run.trace_json);

  int multi = 0;
  for (const obs::GroupGammaStat& g : report.groups) {
    EXPECT_EQ(g.run, 1);  // fresh tracer: first (and only) run epoch
    if (g.size < 2) {
      // Solo incarnations realize exactly their non-idle fraction.
      EXPECT_NEAR(g.gamma_realized, g.gamma_predicted, 1e-6)
          << "solo group " << g.group;
      continue;
    }
    ++multi;
    // The prediction is Eq. 4's rotation-schedule γ, which quantizes to
    // stage boundaries; the fluid execution model is work-conserving, so
    // on clean timings realized may exceed predicted (badly matched
    // groups leave the most on the table) but must never fall short of
    // the promise by more than a few percent.
    EXPECT_GE(g.gamma_realized, g.gamma_predicted - 0.05)
        << "group " << g.group << " run " << g.run;
    EXPECT_LE(g.gamma_realized, 1.0 + 1e-9);
  }
  EXPECT_GT(multi, 0) << "Muri formed no multi-member groups";
}

TEST(Analysis, ComplementaryPairMatchesExactly) {
  // Two jobs whose stage times tile each other perfectly: storage+cpu
  // durations swap, so the rotation leaves zero idle time and γ = 1.
  Trace t;
  t.name = "pair";
  for (int i = 0; i < 2; ++i) {
    Job j;
    j.id = i;
    j.num_gpus = 1;
    j.submit_time = 0;
    j.profile.stage_time = i == 0 ? ResourceVector{1.0, 2.0, 0.0, 0.0}
                                  : ResourceVector{2.0, 1.0, 0.0, 0.0};
    j.iterations = 400;
    t.jobs.push_back(j);
  }

  Tracer tracer;
  tracer.set_enabled(true);
  MuriOptions mopt;
  mopt.durations_known = true;
  MuriScheduler sched(mopt);
  SimOptions opt = noise_free_options();
  // One GPU forces the pair to share it — Muri must interleave them.
  opt.cluster.num_machines = 1;
  opt.cluster.gpus_per_machine = 1;
  opt.tracer = &tracer;
  run_simulation(t, sched, opt);

  const UtilizationReport report = analyze(tracer.chrome_trace_json());
  bool saw_pair = false;
  for (const obs::GroupGammaStat& g : report.groups) {
    if (g.size != 2) continue;
    saw_pair = true;
    EXPECT_NEAR(g.gamma_predicted, 1.0, 1e-9);
    // Exact up to the µs quantization of trace timestamps.
    EXPECT_NEAR(g.gamma_realized, g.gamma_predicted, 1e-3);
  }
  EXPECT_TRUE(saw_pair) << "complementary jobs were not grouped";
}

TEST(Analysis, OfflineAgreesWithOnlineAccounting) {
  const TracedRun run = run_noise_free();
  const UtilizationReport report = analyze(run.trace_json);

  // Total busy seconds: the report's fraction-weighted span sums must
  // reproduce the simulator's muri_resource_busy_seconds accounting (the
  // only slack is µs timestamp quantization).
  for (int r = 0; r < kNumResources; ++r) {
    const double online = run.result.resource_busy_seconds[
        static_cast<size_t>(r)];
    const double offline = report.busy_seconds[static_cast<size_t>(r)];
    EXPECT_NEAR(offline, online, 1e-3 * std::max(online, 1.0))
        << to_string(static_cast<Resource>(r));
  }

  // Realized-γ mean over multi-member groups, weighted by active window —
  // the same averaging SimResult uses.
  double weight = 0, realized_sum = 0;
  for (const obs::GroupGammaStat& g : report.groups) {
    if (g.size < 2) continue;
    const double wall = g.window_end - g.window_start;
    const double active = wall - std::clamp(g.stall_seconds, 0.0, wall);
    if (active <= 0) continue;
    weight += active;
    realized_sum += g.gamma_realized * active;
  }
  ASSERT_GT(weight, 0);
  EXPECT_NEAR(realized_sum / weight, run.result.avg_group_gamma_realized,
              1e-4);
}

TEST(Analysis, RenderersAreByteStableAcrossIdenticalRuns) {
  const TracedRun a = run_noise_free();
  const TracedRun b = run_noise_free();
  ASSERT_EQ(a.trace_json, b.trace_json);  // sim export determinism

  const UtilizationReport ra = analyze(a.trace_json);
  const UtilizationReport rb = analyze(b.trace_json);
  EXPECT_EQ(obs::report_text(ra), obs::report_text(rb));
  EXPECT_EQ(obs::report_csv(ra), obs::report_csv(rb));
  const std::string json_a = obs::report_json(ra);
  EXPECT_EQ(json_a, obs::report_json(rb));

  // The JSON rendering must itself be well-formed.
  JsonValue parsed;
  std::string err;
  ASSERT_TRUE(obs::parse_json(json_a, parsed, &err)) << err;
  EXPECT_TRUE(parsed.at("utilization").is_array());
  EXPECT_TRUE(parsed.at("groups").is_array());
  EXPECT_EQ(parsed.object.count("jobs"), 0u);  // per-job: jobtrace's
  EXPECT_TRUE(parsed.at("summary").is_object());
  EXPECT_FALSE(parsed.at("utilization").array.empty());
}

TEST(Analysis, ExecutorTraceProducesTimelinesAndRealizedGamma) {
  Tracer tracer;
  tracer.set_enabled(true);
  obs::MetricsRegistry metrics;

  std::vector<runtime::ExecJobSpec> specs(2);
  specs[0] = {"a", ResourceVector{0.4, 0.6, 0.0, 0.0}, 0};
  specs[1] = {"b", ResourceVector{0.6, 0.4, 0.0, 0.0}, 1};
  runtime::ExecOptions options;
  options.time_scale = 0.05;
  options.run_for = 0.4;
  options.coordinate = true;
  options.slots = {Resource::kStorage, Resource::kCpu};
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.gamma_predicted = 1.0;  // perfectly complementary pair

  const runtime::ExecResult result = runtime::run_group(specs, options);
  EXPECT_GT(result.gamma_realized, 0.0);
  EXPECT_LE(result.gamma_realized, 1.0);

  // Live counters accumulated what the result reports.
  for (int r = 0; r < 2; ++r) {
    const char* name = r == 0 ? "storage" : "cpu";
    EXPECT_NEAR(
        metrics
            .counter("muri_resource_busy_seconds", "",
                     {{"machine", "executor"}, {"resource", name}})
            .value(),
        result.busy_seconds[static_cast<size_t>(r)], 1e-9);
  }
  EXPECT_GT(
      metrics.summary("muri_group_gamma_realized", "",
                      {{"machine", "executor"}})
          .count(),
      0);

  // The wall-clock trace analyzes into executor-track timelines whose
  // busy seconds bound the nominal occupancy from above (spans include
  // token wait).
  const UtilizationReport report = analyze(tracer.chrome_trace_json());
  double storage_busy = 0, cpu_busy = 0;
  for (const obs::ResourceTimeline& tl : report.timelines) {
    if (tl.track != obs::kExecutorTrack) continue;
    if (tl.resource == Resource::kStorage) storage_busy += tl.busy_seconds;
    if (tl.resource == Resource::kCpu) cpu_busy += tl.busy_seconds;
  }
  EXPECT_GE(storage_busy,
            result.busy_seconds[static_cast<size_t>(Resource::kStorage)] -
                1e-6);
  EXPECT_GE(cpu_busy,
            result.busy_seconds[static_cast<size_t>(Resource::kCpu)] - 1e-6);
}

}  // namespace
}  // namespace muri
