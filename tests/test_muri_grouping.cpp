// Focused properties of Algorithm 1's multi-round grouping and the Muri
// scheduler's plan construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <set>
#include <thread>

#include "common/rng.h"
#include "interleave/efficiency.h"
#include "job/model.h"
#include "matching/capture.h"
#include "matching/brute_force.h"
#include "obs/metrics.h"
#include "scheduler/muri.h"

namespace muri {
namespace {

std::vector<ResourceVector> zoo_profiles(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ResourceVector> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(model_profile(kAllModels[static_cast<size_t>(
                                    rng.uniform_int(0, kNumModels - 1))],
                                1)
                      .stage_time);
  }
  return out;
}

double grouping_gamma(const std::vector<ResourceVector>& profiles,
                      const std::vector<std::vector<int>>& groups) {
  double total = 0;
  for (const auto& g : groups) {
    if (g.size() < 2) continue;
    std::vector<ResourceVector> members;
    for (int idx : g) members.push_back(profiles[static_cast<size_t>(idx)]);
    total += plan_interleave(members).efficiency;
  }
  return total;
}

TEST(MultiRoundGrouping, PartitionIsExactCover) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto profiles = zoo_profiles(33, seed);
    for (int max_size : {2, 3, 4}) {
      const auto groups = multi_round_grouping(profiles, max_size);
      std::set<int> seen;
      for (const auto& g : groups) {
        EXPECT_LE(static_cast<int>(g.size()), max_size);
        EXPECT_GE(g.size(), 1u);
        for (int idx : g) {
          EXPECT_TRUE(seen.insert(idx).second);
          EXPECT_GE(idx, 0);
          EXPECT_LT(idx, 33);
        }
      }
      EXPECT_EQ(seen.size(), profiles.size());
    }
  }
}

TEST(MultiRoundGrouping, MostJobsEndUpInFullGroups) {
  // With an even, well-mixed candidate set, the heuristic should build
  // mostly max-size groups (that is what drives Muri's concurrency).
  const auto profiles = zoo_profiles(64, 9);
  const auto groups = multi_round_grouping(profiles, 4);
  int in_full = 0;
  for (const auto& g : groups) {
    if (g.size() == 4) in_full += 4;
  }
  EXPECT_GE(in_full, 48);  // at least 75% in 4-groups
}

TEST(MultiRoundGrouping, NeverWorseThanHalfOfOptimum) {
  // Against the NP-hard optimum on small instances, the heuristic's total
  // group-gamma stays within a factor-2 (empirically ~0.65-0.8).
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const auto profiles = zoo_profiles(10, 100 + trial);
    const auto heuristic = multi_round_grouping(profiles, 4);
    const double hw = grouping_gamma(profiles, heuristic);
    const Grouping optimal =
        brute_force_grouping(10, 4, [&](const std::vector<int>& members) {
          std::vector<ResourceVector> ms;
          for (int idx : members) {
            ms.push_back(profiles[static_cast<size_t>(idx)]);
          }
          return plan_interleave(ms).efficiency;
        });
    EXPECT_GE(hw, 0.5 * optimal.weight - 1e-9) << "trial " << trial;
    EXPECT_LE(hw, optimal.weight + 1e-9);
  }
}

TEST(MultiRoundGrouping, UnionWeightBeatsNothingForComplementarySet) {
  // Four one-per-bottleneck jobs must end in a single 4-group whose gamma
  // beats any split into two pairs.
  std::vector<ResourceVector> profiles = {
      {0.6, 0.1, 0.05, 0.05},
      {0.05, 0.6, 0.1, 0.05},
      {0.05, 0.1, 0.6, 0.05},
      {0.05, 0.05, 0.1, 0.6},
  };
  const auto groups = multi_round_grouping(profiles, 4);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 4u);
}

TEST(MultiRoundGrouping, ThreadedGroupingIsBitIdenticalToSerial) {
  // Schedulers run on whatever thread drives them (a daemon's loop thread,
  // test threads side by side), and the core keeps its Blossom workspace
  // and stage tables per thread. So concurrent calls must keep no state
  // between them: every concurrent result and its work counters must
  // equal the serial call's, bit for bit.
  struct Case {
    std::vector<ResourceVector> profiles;
    int max_size = 0;
    std::vector<std::vector<int>> groups;
    GroupingStats stats;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    for (int n : {7, 24, 48}) {
      for (int max_size : {2, 3, 4}) {
        cases.push_back({zoo_profiles(n, seed), max_size, {}, {}});
      }
    }
  }
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cases, t] {
      for (size_t i = t; i < cases.size(); i += kThreads) {
        Case& c = cases[i];
        c.groups = multi_round_grouping(c.profiles, c.max_size, &c.stats);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const Case& c : cases) {
    const auto serial = multi_round_grouping(c.profiles, c.max_size);
    GroupingStats serial_stats;
    EXPECT_EQ(multi_round_grouping(c.profiles, c.max_size, &serial_stats),
              serial);
    EXPECT_EQ(c.groups, serial)
        << "n=" << c.profiles.size() << " k=" << c.max_size;
    EXPECT_EQ(c.stats.cache_hits, serial_stats.cache_hits);
    EXPECT_EQ(c.stats.cache_misses, serial_stats.cache_misses);
    EXPECT_EQ(c.stats.matchings_run, serial_stats.matchings_run);
  }
}

std::vector<std::vector<int>> canonical_groups(
    std::vector<std::vector<int>> groups) {
  for (auto& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end());
  return groups;
}

TEST(MultiRoundGrouping, InsertionOrderDoesNotChangeGroups) {
  // Permuting the order jobs are presented in must not change which jobs
  // end up grouped together: edge weights travel with the jobs, not their
  // slots, so a unique-optimum matching lands on the same partition. Each
  // profile is scaled by a distinct factor so no two pairwise γs tie
  // (ties would make the optimum genuinely ambiguous).
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    auto profiles = zoo_profiles(24, seed);
    const int n = static_cast<int>(profiles.size());
    for (int i = 0; i < n; ++i) {
      for (auto& t : profiles[static_cast<size_t>(i)]) {
        t *= 1.0 + 0.013 * static_cast<double>(i);
      }
    }
    for (int max_size : {2, 4}) {
      const auto baseline =
          canonical_groups(multi_round_grouping(profiles, max_size));

      Rng rng(seed * 1000 + static_cast<std::uint64_t>(max_size));
      for (int trial = 0; trial < 3; ++trial) {
        // Fisher-Yates: shuffled slot i holds original job perm[i].
        std::vector<int> perm(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
        for (int i = n - 1; i > 0; --i) {
          std::swap(perm[static_cast<size_t>(i)],
                    perm[static_cast<size_t>(rng.uniform_int(0, i))]);
        }
        std::vector<ResourceVector> shuffled(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
          shuffled[static_cast<size_t>(i)] =
              profiles[static_cast<size_t>(perm[static_cast<size_t>(i)])];
        }

        auto groups = multi_round_grouping(shuffled, max_size);
        for (auto& g : groups) {
          for (int& idx : g) idx = perm[static_cast<size_t>(idx)];
        }
        EXPECT_EQ(canonical_groups(std::move(groups)), baseline)
            << "seed=" << seed << " k=" << max_size << " trial=" << trial;
      }
    }
  }
}

TEST(MultiRoundGrouping, ZeroGammaSurvivorsAreEmittedOnce) {
  // One two-resource job and three zero ("pure compute-free") profiles:
  // the job pairs with one zero in round 1, and the two leftover zeros —
  // a zero-γ pair in round 1 — meet again in round 2 as an unchanged
  // pair, the only kind of node pair that can recur across rounds. Its γ
  // comes from the class table, and every job still lands in exactly one
  // group. Two classes: the job (J) and the zeros (Z). Round 1 prices the
  // keys (J,Z) and (Z,Z) and serves the other 4 pairs from the table;
  // round 2 prices (JZ,Z) and serves (JZ,Z) once more and the recurring
  // (Z,Z).
  std::vector<ResourceVector> profiles = {
      {0.5, 0.5, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.0},
  };
  GroupingStats stats;
  const auto groups = multi_round_grouping(profiles, 4, &stats);
  const std::vector<std::vector<int>> want = {{0, 1, 2}, {3}};
  EXPECT_EQ(groups, want);
  EXPECT_EQ(stats.cache_hits, 4 + 2);
  EXPECT_EQ(stats.cache_misses, 2 + 1);
  // All pairs, then all node pairs.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 6 + 3);
  EXPECT_EQ(stats.matchings_run, 2);
  std::multiset<int> seen;
  for (const auto& g : groups) seen.insert(g.begin(), g.end());
  EXPECT_EQ(seen, (std::multiset<int>{0, 1, 2, 3}));
}

// Every γ edge weight the grouping offers Blossom must equal, bit for
// bit, a direct evaluation of the union's profiles in member order:
// pairwise_efficiency for two singletons, interleave_efficiency for a
// larger union. Admissible pairs missing from the capture must price at
// γ <= 0. Runs on the model zoo (many repeated profiles) and on
// all-distinct jittered profiles.
TEST(MultiRoundGrouping, CapturedEdgeGammasMatchDirectEvaluationBitForBit) {
  std::vector<std::vector<ResourceVector>> inputs;
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    for (int n : {9, 40, 96}) {
      inputs.push_back(zoo_profiles(n, seed));
      Rng jitter(seed * 31 + static_cast<std::uint64_t>(n));
      std::vector<ResourceVector> distinct = zoo_profiles(n, seed);
      for (ResourceVector& p : distinct) {
        for (double& t : p) {
          if (t > 0) t *= jitter.uniform(0.9, 1.1);
        }
      }
      inputs.push_back(std::move(distinct));
    }
  }
  PlanScratch scratch;
  std::int64_t edges_checked = 0;
  for (const auto& profiles : inputs) {
    for (int max_size : {2, 3, 4}) {
      GroupingCapture capture;
      multi_round_grouping(profiles, max_size, nullptr, &capture);
      ASSERT_FALSE(capture.rounds.empty());
      for (const MatchingRoundRecord& rec : capture.rounds) {
        const int n = static_cast<int>(rec.nodes.size());
        std::vector<double> captured(static_cast<size_t>(n) * n, 0.0);
        for (const auto& e : rec.edges) {
          captured[static_cast<size_t>(e.u) * n + e.v] = e.gamma;
        }
        for (int u = 0; u < n; ++u) {
          const auto& a = rec.nodes[static_cast<size_t>(u)];
          for (int v = u + 1; v < n; ++v) {
            const auto& b = rec.nodes[static_cast<size_t>(v)];
            if (static_cast<int>(a.size() + b.size()) > max_size) continue;
            double direct = 0;
            if (a.size() + b.size() == 2) {
              direct = pairwise_efficiency(profiles[static_cast<size_t>(a[0])],
                                           profiles[static_cast<size_t>(b[0])]);
            } else {
              std::vector<ResourceVector> group;
              for (int idx : a) {
                group.push_back(profiles[static_cast<size_t>(idx)]);
              }
              for (int idx : b) {
                group.push_back(profiles[static_cast<size_t>(idx)]);
              }
              direct = interleave_efficiency(group, scratch);
            }
            const double got = captured[static_cast<size_t>(u) * n + v];
            if (direct > 0) {
              EXPECT_EQ(std::memcmp(&got, &direct, sizeof(double)), 0)
                  << "stage=" << rec.stage << " u=" << u << " v=" << v
                  << " got=" << got << " direct=" << direct;
              ++edges_checked;
            } else {
              EXPECT_EQ(got, 0.0) << "stage=" << rec.stage << " u=" << u
                                  << " v=" << v;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(edges_checked, 10000);
}

// Pins the groups multi_round_grouping(..., 4) returns on one thread, so
// stage-1 tie-breaking (Blossom over 2-job nodes with 4-job γ edges) is
// covered as well as stage 0. Model-zoo queues of several sizes with 1-GPU
// and 4-GPU profiles (8 classes, many exact ties), plus one all-distinct
// jittered queue. The digest folds every group in order; a change to it is
// a behaviour change.
TEST(MultiRoundGrouping, GroupDigestIsPinnedOnZooQueues) {
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a 64
  const auto fold = [&](std::int64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= static_cast<std::uint64_t>(x >> (8 * byte)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  std::vector<std::vector<ResourceVector>> queues;
  const int sizes[] = {192, 140, 96, 48, 17};
  for (int si = 0; si < static_cast<int>(std::size(sizes)); ++si) {
    for (int gpus : {1, 4}) {
      Rng rng(static_cast<std::uint64_t>(si) * 100 +
              static_cast<std::uint64_t>(gpus));
      std::vector<ResourceVector> profiles;
      for (int i = 0; i < sizes[si]; ++i) {
        profiles.push_back(
            model_profile(kAllModels[static_cast<size_t>(
                              rng.uniform_int(0, kNumModels - 1))],
                          gpus)
                .stage_time);
      }
      queues.push_back(std::move(profiles));
    }
  }
  Rng jitter(7);
  std::vector<ResourceVector> distinct = zoo_profiles(96, 7);
  for (ResourceVector& p : distinct) {
    for (double& t : p) {
      if (t > 0) t *= jitter.uniform(0.9, 1.1);
    }
  }
  queues.push_back(std::move(distinct));

  std::int64_t grouped = 0;
  for (const auto& profiles : queues) {
    const auto groups = multi_round_grouping(profiles, 4);
    fold(static_cast<std::int64_t>(profiles.size()));
    fold(static_cast<std::int64_t>(groups.size()));
    for (const auto& g : groups) {
      fold(static_cast<std::int64_t>(g.size()));
      for (int idx : g) fold(idx);
      if (g.size() > 2) grouped += static_cast<std::int64_t>(g.size());
    }
  }
  EXPECT_EQ(queues.size(), 11u);
  // Stage 1 merged pairs into groups of three or four somewhere.
  EXPECT_GT(grouped, 0);
  EXPECT_EQ(digest, 0x2efdbf144a9955ffull);
}

TEST(MuriPlan, InterleavedGroupsCarryFullSchedules) {
  MuriOptions opt;
  opt.durations_known = true;
  MuriScheduler muri(opt);
  std::vector<JobView> queue;
  for (int i = 0; i < 12; ++i) {
    JobView v;
    v.id = i;
    v.num_gpus = 1;
    v.remaining_time = 100 + i;
    v.measured = model_profile(kAllModels[static_cast<size_t>(i) % 8], 1);
    queue.push_back(v);
  }
  SchedulerContext ctx;
  ctx.total_gpus = 2;
  ctx.durations_known = true;
  const auto plan = muri.schedule(queue, ctx);
  bool saw_interleaved = false;
  for (const auto& g : plan) {
    if (g.mode != GroupMode::kInterleaved) continue;
    saw_interleaved = true;
    EXPECT_EQ(g.offsets.size(), g.members.size());
    EXPECT_GE(g.slots.size(), g.members.size());
    EXPECT_GT(g.planned_period, 0.0);
    std::set<Resource> distinct_slots(g.slots.begin(), g.slots.end());
    EXPECT_EQ(distinct_slots.size(), g.slots.size());
    std::set<int> distinct_offsets(g.offsets.begin(), g.offsets.end());
    EXPECT_EQ(distinct_offsets.size(), g.offsets.size());
  }
  EXPECT_TRUE(saw_interleaved);
}

TEST(MuriPlan, CandidateCapBoundsGroupedJobs) {
  MuriOptions opt;
  opt.durations_known = true;
  opt.candidate_cap = 8;
  MuriScheduler muri(opt);
  std::vector<JobView> queue;
  for (int i = 0; i < 40; ++i) {
    JobView v;
    v.id = i;
    v.num_gpus = 1;
    v.remaining_time = 50 + i;
    v.measured = model_profile(kAllModels[static_cast<size_t>(i) % 8], 1);
    queue.push_back(v);
  }
  SchedulerContext ctx;
  ctx.total_gpus = 2;
  ctx.durations_known = true;
  const auto plan = muri.schedule(queue, ctx);
  int grouped_jobs = 0;
  for (const auto& g : plan) {
    if (g.members.size() > 1) {
      grouped_jobs += static_cast<int>(g.members.size());
    }
  }
  EXPECT_LE(grouped_jobs, 8);
}

TEST(MuriPlan, AdmittedGpuBudgetRespectsCluster) {
  // The first groups in plan order (until the first unfit) must fit the
  // cluster budget thanks to budgeted admission.
  MuriOptions opt;
  MuriScheduler muri(opt);
  std::vector<JobView> queue;
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    JobView v;
    v.id = i;
    v.num_gpus = 1 << rng.uniform_int(0, 2);  // 1/2/4
    v.attained_service = rng.uniform(0, 1000);
    v.measured = model_profile(kAllModels[static_cast<size_t>(i) % 8],
                               v.num_gpus);
    queue.push_back(v);
  }
  SchedulerContext ctx;
  ctx.total_gpus = 8;
  const auto plan = muri.schedule(queue, ctx);
  int budget_used = 0;
  for (const auto& g : plan) {
    if (budget_used + g.num_gpus > ctx.total_gpus) break;
    budget_used += g.num_gpus;
  }
  EXPECT_LE(budget_used, ctx.total_gpus);
  EXPECT_GE(budget_used, ctx.total_gpus / 2);  // not trivially empty
}

std::vector<JobView> randomized_queue(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobView> queue;
  for (int i = 0; i < n; ++i) {
    JobView v;
    v.id = i;
    v.num_gpus = 1 << rng.uniform_int(0, 3);  // 1/2/4/8 → four buckets
    v.submit_time = rng.uniform(0, 500);
    v.attained_service = rng.uniform(0, 2000);
    v.remaining_time = rng.uniform(10, 3000);
    v.measured = model_profile(kAllModels[static_cast<size_t>(
                                   rng.uniform_int(0, kNumModels - 1))],
                               v.num_gpus);
    queue.push_back(v);
  }
  return queue;
}

TEST(MuriPlan, RoundStatsAccumulateAcrossCalls) {
  MuriScheduler muri;
  SchedulerContext ctx;
  ctx.total_gpus = 8;
  const auto queue = randomized_queue(40, 9);
  muri.schedule(queue, ctx);
  const auto first = muri.cumulative_stats();
  EXPECT_GT(first.matchings_run, 0);
  EXPECT_GT(first.cache_misses, 0);
  muri.schedule(queue, ctx);
  EXPECT_EQ(muri.cumulative_stats().matchings_run, 2 * first.matchings_run);
  EXPECT_EQ(muri.matchings_run(), muri.cumulative_stats().matchings_run);
  EXPECT_GE(muri.last_round_stats().graph_build_seconds, 0.0);
  EXPECT_GE(muri.last_round_stats().matching_seconds, 0.0);
}

TEST(MuriPlan, PhaseTimersFitInsideTheRound) {
  // A round runs on one thread and its phase timers cover disjoint
  // stretches of it, so they sum to at most the round's wall time: per
  // call against a clock around schedule(), and summed over calls in the
  // muri_sched_* series. Four sizeable buckets (about 64 jobs each), so
  // timers summed over concurrently grouped buckets would overshoot.
  obs::MetricsRegistry metrics;
  MuriOptions opt;
  opt.metrics = &metrics;
  opt.candidate_cap = 256;  // group the whole queue
  MuriScheduler muri(opt);
  SchedulerContext ctx;
  ctx.total_gpus = 480;  // about half the queue's demand
  ctx.gpus_per_machine = 8;
  const std::vector<std::uint64_t> seeds = {3, 21, 42, 7, 9};
  for (const std::uint64_t seed : seeds) {
    const auto queue = randomized_queue(256, seed);
    const auto t0 = std::chrono::steady_clock::now();
    muri.schedule(queue, ctx);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const GroupingStats& s = muri.last_round_stats();
    EXPECT_GT(s.matchings_run, 0) << "seed=" << seed;
    EXPECT_LE(s.priority_sort_seconds + s.graph_build_seconds +
                  s.matching_seconds + s.admission_seconds,
              wall)
        << "seed=" << seed;
  }
  double phase_sum = 0;
  for (const char* phase : {"sort", "graph_build", "matching", "admission"}) {
    phase_sum += metrics
                     .histogram("muri_sched_phase_seconds", "",
                                obs::kRoundPhaseBounds, {{"phase", phase}})
                     .sum();
  }
  const obs::Summary& round =
      metrics.summary("muri_sched_round_wall_seconds", "");
  EXPECT_EQ(round.count(), static_cast<std::int64_t>(seeds.size()));
  EXPECT_GT(phase_sum, 0.0);
  EXPECT_LE(phase_sum, round.sum());
}

}  // namespace
}  // namespace muri
