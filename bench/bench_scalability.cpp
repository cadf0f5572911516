// §5 scalability claim: "the centralized scheduler can generate a
// grouping plan for 1,000 jobs in a few seconds". Google-benchmark over
// the multi-round grouping and its building blocks, plus a
// configs × jobs scheduling-round sweep that emits a machine-readable
// BENCH_sched_round.json for the CI perf trajectory:
//
//   bench_scalability --json            # full sweep → BENCH_sched_round.json
//   bench_scalability --small --json    # CI smoke variant
//   bench_scalability --out=path.json   # override the output path
//
// Without --json/--small the binary is a plain google-benchmark suite.
// The JSON also records `reference_seconds`: a fixed single-threaded
// kernel timed before and after the sweep, so tools/diff_bench.py can
// divide out the host's speed without assuming most points are unchanged.
#include <benchmark/benchmark.h>

#include <cstddef>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "interleave/efficiency.h"
#include "job/model.h"
#include "matching/blossom.h"
#include "scheduler/muri.h"
#include "sim/fluid.h"

namespace muri {
namespace {

std::vector<ResourceVector> random_profiles(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ResourceVector> profiles;
  profiles.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const ModelKind m = kAllModels[static_cast<size_t>(
        rng.uniform_int(0, kNumModels - 1))];
    profiles.push_back(model_profile(m, 1).stage_time);
  }
  return profiles;
}

void BM_PairwiseEfficiency(benchmark::State& state) {
  const auto profiles = random_profiles(64, 7);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = profiles[i % profiles.size()];
    const auto& b = profiles[(i * 31 + 7) % profiles.size()];
    benchmark::DoNotOptimize(pairwise_efficiency(a, b));
    ++i;
  }
}
BENCHMARK(BM_PairwiseEfficiency);

void BM_PlanInterleave4(benchmark::State& state) {
  const auto profiles = random_profiles(4, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_interleave(profiles));
  }
}
BENCHMARK(BM_PlanInterleave4);

void BM_FluidRates4(benchmark::State& state) {
  const auto profiles = random_profiles(4, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_min_fair_rates(profiles, 1.15));
  }
}
BENCHMARK(BM_FluidRates4);

void BM_BlossomMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto profiles = random_profiles(n, 17);
  DenseGraph graph(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      graph.set_weight(u, v,
                       pairwise_efficiency(profiles[static_cast<size_t>(u)],
                                           profiles[static_cast<size_t>(v)]));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_weight_matching(graph));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BlossomMatching)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_MultiRoundGrouping(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto profiles = random_profiles(n, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multi_round_grouping(profiles, 4));
  }
  state.SetComplexityN(n);
}
// The 1,000-job point backs the paper's "a few seconds" claim directly.
BENCHMARK(BM_MultiRoundGrouping)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Arg(1000)->Unit(benchmark::kMillisecond)->Iterations(1)->Complexity();

void BM_GreedyMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto profiles = random_profiles(n, 29);
  DenseGraph graph(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      graph.set_weight(u, v,
                       pairwise_efficiency(profiles[static_cast<size_t>(u)],
                                           profiles[static_cast<size_t>(v)]));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_matching(graph));
  }
}
BENCHMARK(BM_GreedyMatching)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Scheduling-round sweep (configs × jobs) → BENCH_sched_round.json.

// Three queue shapes: "buckets4" cycles GPU demand 1/2/4/8 so the round
// groups four equal buckets one after another, "bucket1" puts every job
// in the single 1-GPU bucket (the shape of the benchmark workloads, where
// one bucket carries almost all of a round's work), and "distinct1" is
// bucket1 with every stage time jittered by ±10%, so no two profiles are
// equal and the grouping's class table can serve no stage-0 pair (as with
// measured, uncached profiles).
std::vector<JobView> sweep_queue(int jobs, bool four_buckets,
                                 std::uint64_t seed, bool jitter = false) {
  Rng rng(seed);
  std::vector<JobView> queue;
  queue.reserve(static_cast<size_t>(jobs));
  constexpr int kDemands[4] = {1, 2, 4, 8};
  for (int i = 0; i < jobs; ++i) {
    JobView v;
    v.id = i;
    v.num_gpus = four_buckets ? kDemands[i % 4] : 1;
    v.remaining_time = rng.uniform(10, 3000);
    v.attained_service = rng.uniform(0, 2000);
    v.measured = model_profile(kAllModels[static_cast<size_t>(
                                   rng.uniform_int(0, kNumModels - 1))],
                               v.num_gpus);
    if (jitter) {
      for (Duration& t : v.measured.stage_time) t *= rng.uniform(0.9, 1.1);
    }
    queue.push_back(v);
  }
  return queue;
}

// A fixed single-threaded computation independent of the scheduler: a
// dependent walk around a 1 MiB random cycle and sorts of 64 Ki doubles.
// Its wall time tracks the host's speed while the sweep runs. Returns the
// fastest of three timings.
double reference_kernel_seconds() {
  constexpr std::size_t kRing = std::size_t{1} << 18;
  constexpr std::size_t kKeys = std::size_t{1} << 16;
  Rng rng(99);
  std::vector<std::uint32_t> ring(kRing);
  for (std::size_t i = 0; i < kRing; ++i) {
    ring[i] = static_cast<std::uint32_t>(i);
  }
  // Sattolo's shuffle: one cycle through every slot.
  for (std::size_t i = kRing - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(ring[i], ring[j]);
  }
  std::vector<double> keys(kKeys);
  for (double& k : keys) k = rng.uniform();
  std::vector<double> work(kKeys);
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t at = 0;
    for (int i = 0; i < (1 << 21); ++i) at = ring[at];
    double sink = at;
    for (int pass = 0; pass < 4; ++pass) {
      work = keys;
      std::sort(work.begin(), work.end());
      sink += work[kKeys / 2];
    }
    benchmark::DoNotOptimize(sink);
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

struct SweepPoint {
  std::string config;
  int jobs = 0;
  // Distinct (GPU demand, profile) classes in the queue: the stage-0
  // classes of the round, summed over its GPU buckets.
  int classes = 0;
  double round_seconds = 0;
  // Counters of the repetition whose time is round_seconds.
  GroupingStats stats;
  int groups = 0;
  // Plan quality beside the round time: the share of the queue's jobs in
  // multi-job groups, and the mean γ of those groups.
  double grouped_fraction = 0;
  double mean_gamma = 0;
};

int count_classes(const std::vector<JobView>& queue) {
  std::set<std::pair<int, std::vector<Duration>>> classes;
  for (const JobView& v : queue) {
    classes.emplace(v.num_gpus,
                    std::vector<Duration>(v.measured.stage_time.begin(),
                                          v.measured.stage_time.end()));
  }
  return static_cast<int>(classes.size());
}

// Fills p.grouped_fraction and p.mean_gamma from `plan`; job ids index
// `queue`.
void plan_quality(const std::vector<JobView>& queue,
                  const std::vector<PlannedGroup>& plan, SweepPoint& p) {
  int grouped = 0;
  int interleaved = 0;
  double gamma_sum = 0;
  std::vector<ResourceVector> members;
  for (const PlannedGroup& g : plan) {
    if (g.members.size() < 2) continue;
    members.clear();
    for (const JobId id : g.members) {
      members.push_back(queue[static_cast<size_t>(id)].measured.stage_time);
    }
    grouped += static_cast<int>(g.members.size());
    ++interleaved;
    gamma_sum += plan_interleave(members).efficiency;
  }
  p.grouped_fraction =
      static_cast<double>(grouped) / static_cast<double>(queue.size());
  p.mean_gamma = interleaved > 0 ? gamma_sum / interleaved : 0.0;
}

int run_sweep(bool small, const std::string& out_path) {
  const std::vector<int> job_sizes =
      small ? std::vector<int>{48, 96} : std::vector<int>{128, 256, 512};
  const int reps = small ? 3 : 5;

  const double reference_before = reference_kernel_seconds();
  std::vector<SweepPoint> points;
  for (const char* config : {"buckets4", "bucket1", "distinct1"}) {
    const bool four_buckets = std::string(config) == "buckets4";
    const bool distinct = std::string(config) == "distinct1";
    for (const int jobs : job_sizes) {
      const auto queue = sweep_queue(jobs, four_buckets, 1234, distinct);
      SchedulerContext ctx;
      ctx.durations_known = true;
      ctx.total_gpus = four_buckets ? jobs : jobs / 2;
      ctx.gpus_per_machine = 8;

      MuriOptions opt;
      opt.durations_known = true;
      opt.candidate_cap = jobs;  // group the whole queue, no 192 clamp
      MuriScheduler sched(opt);

      SweepPoint p;
      p.config = config;
      p.jobs = jobs;
      p.classes = count_classes(queue);
      p.round_seconds = 1e300;
      for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<PlannedGroup> plan = sched.schedule(queue, ctx);
        const double sec =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        if (sec < p.round_seconds) {
          p.round_seconds = sec;
          p.stats = sched.last_round_stats();
          p.groups = static_cast<int>(plan.size());
          plan_quality(queue, plan, p);
        }
      }
      std::printf(
          "%-9s jobs=%-4d round=%8.3f ms  graph=%7.3f ms  match=%7.3f ms  "
          "gamma_evals=%lld  table_hits=%lld  classes=%d  quotient=%lld/%lld"
          "  grouped=%.3f  mean_gamma=%.4f\n",
          p.config.c_str(), jobs, p.round_seconds * 1e3,
          p.stats.graph_build_seconds * 1e3, p.stats.matching_seconds * 1e3,
          static_cast<long long>(p.stats.cache_misses),
          static_cast<long long>(p.stats.cache_hits), p.classes,
          static_cast<long long>(p.stats.quotient_solves),
          static_cast<long long>(p.stats.matchings_run), p.grouped_fraction,
          p.mean_gamma);
      std::fflush(stdout);
      points.push_back(std::move(p));
    }
  }

  const double reference_after = reference_kernel_seconds();
  std::printf("reference kernel: %.3f ms before, %.3f ms after the sweep\n",
              reference_before * 1e3, reference_after * 1e3);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"sched_round\",\n");
  std::fprintf(f, "  \"small\": %s,\n", small ? "true" : "false");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"reference_before_seconds\": %.9f,\n",
               reference_before);
  std::fprintf(f, "  \"reference_after_seconds\": %.9f,\n",
               reference_after);
  std::fprintf(f, "  \"reference_seconds\": %.9f,\n",
               0.5 * (reference_before + reference_after));
  std::fprintf(f, "  \"sweep\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(
        f,
        "    {\"config\": \"%s\", \"jobs\": %d, "
        "\"round_seconds\": %.9f, \"graph_build_seconds\": %.9f, "
        "\"matching_seconds\": %.9f, \"gamma_evals\": %lld, "
        "\"gamma_table_hits\": %lld, "
        "\"matchings_run\": %lld, \"groups\": %d, \"classes\": %d, "
        "\"quotient_solves\": %lld, \"quotient_fallbacks\": %lld, "
        "\"grouped_fraction\": %.6f, \"mean_gamma\": %.6f}%s\n",
        p.config.c_str(), p.jobs, p.round_seconds,
        p.stats.graph_build_seconds, p.stats.matching_seconds,
        static_cast<long long>(p.stats.cache_misses),
        static_cast<long long>(p.stats.cache_hits),
        static_cast<long long>(p.stats.matchings_run), p.groups, p.classes,
        static_cast<long long>(p.stats.quotient_solves),
        static_cast<long long>(p.stats.quotient_fallbacks),
        p.grouped_fraction, p.mean_gamma, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace muri

int main(int argc, char** argv) {
  muri::Flags flags(argc, argv);
  if (flags.has("json") || flags.has("small")) {
    const bool small = flags.has("small");
    const std::string out = flags.get("out", "BENCH_sched_round.json");
    muri::warn_unread(flags);
    return muri::run_sweep(small, out);
  }
  // google-benchmark takes its own --benchmark_* flags out of argv; any
  // flag left over is one nothing reads.
  benchmark::Initialize(&argc, argv);
  muri::warn_unread(muri::Flags(argc, argv));
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
