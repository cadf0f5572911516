#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "interleave/efficiency.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "runtime/executor.h"

namespace muri {
namespace {

using runtime::ExecJobSpec;
using runtime::ExecOptions;

ExecOptions fast_options() {
  ExecOptions opt;
  // 1 simulated second -> 10 ms of wall work: stages land in the sleep
  // regime so grouped jobs overlap even on a single-core host.
  opt.time_scale = 0.01;
  opt.run_for = 0.4;
  return opt;
}

TEST(Runtime, SoloThroughputMatchesIterationTime) {
  ExecJobSpec job;
  job.name = "solo";
  job.profile = {0.5, 0.5, 1.0, 0.5};  // 2.5 simulated s/iter
  const auto r = run_solo(job, fast_options());
  EXPECT_GT(r.iterations, 0);
  // Throughput should be near 1/2.5 = 0.4 iterations per simulated second
  // (loose bounds: sleep jitter on a loaded single-core host).
  EXPECT_GT(r.sim_throughput, 0.22);
  EXPECT_LT(r.sim_throughput, 0.55);
}

TEST(Runtime, CoordinatedPairOverlapsComplementaryStages) {
  // A: CPU-heavy, B: GPU-heavy. Interleaved with offsets from the planner,
  // both should approach their solo throughput (γ = 1 pattern).
  std::vector<ResourceVector> profiles = {{0, 2.0, 1.0, 0}, {0, 1.0, 2.0, 0}};
  const InterleavePlan plan = plan_interleave(profiles);
  ASSERT_DOUBLE_EQ(plan.efficiency, 1.0);

  std::vector<ExecJobSpec> specs(2);
  specs[0] = {"cpuheavy", profiles[0], plan.offsets[0]};
  specs[1] = {"gpuheavy", profiles[1], plan.offsets[1]};
  ExecOptions opt = fast_options();
  opt.coordinate = true;
  opt.slots = plan.slots;  // rotate over the planner's axis
  const auto result = run_group(specs, opt);
  ASSERT_EQ(result.jobs.size(), 2u);

  // Solo period is 3 simulated seconds; the coordinated period should be
  // near 3 (perfect overlap), so each job's throughput ~1/3.
  for (const auto& jr : result.jobs) {
    EXPECT_GT(jr.iterations, 0);
    EXPECT_GT(jr.sim_throughput, 1.0 / 3.0 * 0.6) << jr.name;
  }
}

TEST(Runtime, UncoordinatedContentionSlowsIdenticalJobs) {
  // Two identical single-resource-heavy jobs fight over the same token:
  // total throughput halves per job.
  ExecJobSpec a{"a", {0, 0, 2.0, 0}, 0};
  ExecJobSpec b{"b", {0, 0, 2.0, 0}, 0};
  ExecOptions opt = fast_options();
  opt.coordinate = false;
  const auto shared = run_group({a, b}, opt);
  const auto solo = run_solo(a, opt);
  ASSERT_EQ(shared.jobs.size(), 2u);
  const double shared_tput =
      shared.jobs[0].sim_throughput + shared.jobs[1].sim_throughput;
  // Combined throughput cannot exceed the solo rate (one token).
  EXPECT_LE(shared_tput, solo.sim_throughput * 1.25);
}

// Pairs of stage spans from different members that overlap in time on the
// same resource, read from the executor's Chrome trace. Stage spans cover
// token wait plus work, so contention on a resource shows up as overlap.
struct StageOverlap {
  int stage_spans = 0;
  int overlapping_pairs = 0;
};

StageOverlap stage_overlap(const std::string& trace_json) {
  struct Span {
    std::int64_t start, end;
    int lane, resource;
  };
  obs::JsonValue root;
  EXPECT_TRUE(obs::parse_json(trace_json, root));
  std::vector<Span> spans;
  for (const obs::JsonValue& e : root.at("traceEvents").array) {
    if (!e.at("cat").is_string() || e.at("cat").string != "stage") continue;
    const auto ts = static_cast<std::int64_t>(e.at("ts").number);
    spans.push_back({ts, ts + static_cast<std::int64_t>(e.at("dur").number),
                     static_cast<int>(e.at("tid").number),
                     static_cast<int>(e.at("args").at("resource").number)});
  }
  StageOverlap out;
  out.stage_spans = static_cast<int>(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const Span& a = spans[i];
      const Span& b = spans[j];
      if (a.lane != b.lane && a.resource == b.resource &&
          a.start < b.end && b.start < a.end) {
        ++out.overlapping_pairs;
      }
    }
  }
  return out;
}

// Coordination means exclusive resources, not a throughput margin: under
// Muri's rotation schedule no two members ever hold or wait for the same
// resource at once, while free-running members of the same pair collide
// (both want the CPU first). Asserted on the recorded stage spans, so the
// test does not depend on wall-clock throughput.
TEST(Runtime, CoordinatedBeatsUncoordinatedForComplementaryPair) {
  std::vector<ResourceVector> profiles = {{0, 2.0, 1.0, 0}, {0, 1.0, 2.0, 0}};
  const InterleavePlan plan = plan_interleave(profiles);
  std::vector<ExecJobSpec> specs = {{"a", profiles[0], plan.offsets[0]},
                                    {"b", profiles[1], plan.offsets[1]}};
  ExecOptions opt = fast_options();
  opt.run_for = 0.5;
  const auto traced_run = [&](bool coordinate) {
    obs::Tracer tracer;
    tracer.set_enabled(true);
    ExecOptions o = opt;
    o.tracer = &tracer;
    o.coordinate = coordinate;
    o.slots = coordinate ? plan.slots : std::vector<Resource>{};
    std::vector<ExecJobSpec> s = specs;
    if (!coordinate) s[0].offset = s[1].offset = 0;
    run_group(s, o);
    return stage_overlap(tracer.chrome_trace_json());
  };

  const StageOverlap coord = traced_run(true);
  // Both members ran both of their stages at least once.
  EXPECT_GE(coord.stage_spans, 4);
  EXPECT_EQ(coord.overlapping_pairs, 0);

  const StageOverlap uncoord = traced_run(false);
  EXPECT_GT(uncoord.overlapping_pairs, 0);
}

TEST(Runtime, AllMembersReportWallTime) {
  std::vector<ExecJobSpec> specs = {{"x", {0.2, 0.2, 0.2, 0.2}, 0},
                                    {"y", {0.2, 0.2, 0.2, 0.2}, 1},
                                    {"z", {0.2, 0.2, 0.2, 0.2}, 2}};
  ExecOptions opt = fast_options();
  const auto r = run_group(specs, opt);
  for (const auto& j : r.jobs) {
    EXPECT_GE(j.wall_seconds, opt.run_for * 0.5);
    EXPECT_GT(j.iterations, 0);
  }
}

}  // namespace
}  // namespace muri
