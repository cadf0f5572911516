// Incremental scheduling rounds (matching/incremental): the maintained
// candidate graph must equal a from-scratch rebuild — edge set *and*
// weights, not just the matchings it induces — under arbitrary churn,
// and the incremental scheduler must emit bit-identical plans and
// DecisionLog bytes to the full rebuild at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "job/model.h"
#include "matching/incremental/incremental.h"
#include "obs/provenance.h"
#include "scheduler/muri.h"

namespace muri {
namespace {

ResourceVector random_profile(Rng& rng) {
  return model_profile(
             kAllModels[static_cast<size_t>(
                 rng.uniform_int(0, kNumModels - 1))],
             1)
      .stage_time;
}

struct Population {
  std::vector<JobId> ids;
  std::vector<ResourceVector> profiles;
  JobId next_id = 0;

  void add(Rng& rng, int count) {
    for (int i = 0; i < count; ++i) {
      ids.push_back(next_id++);
      profiles.push_back(random_profile(rng));
    }
  }
  void remove_random(Rng& rng, int count) {
    for (int i = 0; i < count && !ids.empty(); ++i) {
      const auto victim = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(ids.size()) - 1));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
      profiles.erase(profiles.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
};

bool same_edges(const std::vector<MaskEdge>& a,
                const std::vector<MaskEdge>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b) return false;
    if (a[i].score != b[i].score) return false;  // bitwise, on purpose
  }
  return true;
}

// The tentpole property: a maintained mask equals a from-scratch rebuild
// after every step of a randomized arrival/finish churn sequence — edge
// set plus weight equality, per-job neighbor lists included.
TEST(TopKMask, MatchesFromScratchUnderRandomChurn) {
  for (std::uint64_t seed : {7u, 19u, 101u}) {
    for (int k : {1, 3, 8}) {
      Rng rng(seed);
      Population pop;
      pop.add(rng, 40);
      TopKMask maintained(k);
      maintained.update(pop.ids, pop.profiles, nullptr);
      for (int step = 0; step < 60; ++step) {
        pop.remove_random(rng, rng.uniform_int(0, 6));
        pop.add(rng, rng.uniform_int(0, 6));
        IncrementalStats stats;
        maintained.update(pop.ids, pop.profiles, &stats);
        const TopKMask fresh =
            TopKMask::from_scratch(pop.ids, pop.profiles, k);
        ASSERT_TRUE(same_edges(maintained.edges(), fresh.edges()))
            << "seed=" << seed << " k=" << k << " step=" << step;
        for (JobId id : pop.ids) {
          ASSERT_TRUE(same_edges(maintained.neighbors(id),
                                 fresh.neighbors(id)))
              << "seed=" << seed << " k=" << k << " step=" << step
              << " job=" << id;
        }
      }
    }
  }
}

// Draining the population entirely and refilling must not strand stale
// neighbors (the all-removed, buffers-empty edge case).
TEST(TopKMask, SurvivesFullDrainAndRefill) {
  Rng rng(5);
  Population pop;
  pop.add(rng, 12);
  TopKMask m(4);
  m.update(pop.ids, pop.profiles, nullptr);
  pop.remove_random(rng, 12);
  m.update(pop.ids, pop.profiles, nullptr);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.edges().empty());
  pop.add(rng, 9);
  m.update(pop.ids, pop.profiles, nullptr);
  const TopKMask fresh = TopKMask::from_scratch(pop.ids, pop.profiles, 4);
  EXPECT_TRUE(same_edges(m.edges(), fresh.edges()));
}

// A job whose profile bits change must be treated as departed + arrived,
// never served stale scores.
TEST(TopKMask, ProfileChangeInvalidatesNeighbors) {
  Rng rng(11);
  Population pop;
  pop.add(rng, 20);
  TopKMask m(4);
  m.update(pop.ids, pop.profiles, nullptr);
  pop.profiles[3] = random_profile(rng);
  pop.profiles[3][0] += 0.125;  // guarantee different bits
  IncrementalStats stats;
  m.update(pop.ids, pop.profiles, &stats);
  EXPECT_GE(stats.dirty_jobs, 2);  // remove + add of the same id
  const TopKMask fresh = TopKMask::from_scratch(pop.ids, pop.profiles, 4);
  EXPECT_TRUE(same_edges(m.edges(), fresh.edges()));
}

TEST(SplitComponents, PartitionsWithinCapDeterministically) {
  Rng rng(23);
  Population pop;
  pop.add(rng, 50);
  const TopKMask mask = TopKMask::from_scratch(pop.ids, pop.profiles, 6);
  for (int cap : {2, 4, 16, 64}) {
    const auto comps = split_components(pop.ids, mask.edges(), cap);
    std::set<int> seen;
    int prev_min = -1;
    for (const auto& c : comps) {
      ASSERT_FALSE(c.empty());
      ASSERT_LE(static_cast<int>(c.size()), std::max(cap, 1));
      ASSERT_TRUE(std::is_sorted(c.begin(), c.end()));
      ASSERT_GT(c.front(), prev_min);  // ordered by min member index
      prev_min = c.front();
      for (int i : c) ASSERT_TRUE(seen.insert(i).second);
    }
    ASSERT_EQ(seen.size(), pop.ids.size());
    // Same inputs, same split — twice.
    const auto again = split_components(pop.ids, mask.edges(), cap);
    ASSERT_EQ(comps, again);
  }
}

TEST(PairGammaCache, ValidatesFullProfileBits) {
  Rng rng(3);
  const ResourceVector pa = random_profile(rng);
  const ResourceVector pb = random_profile(rng);
  PairGammaCache cache;
  cache.store(1, pa, 2, pb, 0.75, /*round=*/1);
  double g = 0;
  EXPECT_TRUE(cache.lookup(1, pa, 2, pb, &g));
  EXPECT_EQ(g, 0.75);
  // Entries are directional — γ evaluation is order-sensitive in its
  // floating-point reduction, so the reversed orientation must miss
  // rather than replay the wrong rounding.
  EXPECT_FALSE(cache.lookup(2, pb, 1, pa, &g));
  // Any single changed bit must miss — a hash-only key could collide
  // here and silently break bit-identity.
  ResourceVector pa2 = pa;
  pa2[2] += 1e-9;
  EXPECT_FALSE(cache.lookup(1, pa2, 2, pb, &g));
  // Aging drops untouched entries.
  cache.age(/*current_round=*/100, /*max_age=*/64);
  EXPECT_FALSE(cache.lookup(1, pa, 2, pb, &g));
}

TEST(ComponentResultCache, MissesWhenCaptureNowRequired) {
  Rng rng(9);
  ComponentResultCache cache;
  ComponentResultCache::CachedComponent e;
  e.ids = {4, 7};
  e.profiles = {random_profile(rng), random_profile(rng)};
  e.groups = {{0, 1}};
  e.has_capture = false;
  cache.store(e, /*round=*/1);
  EXPECT_NE(cache.lookup(e.ids, e.profiles, /*need_capture=*/false, 2),
            nullptr);
  // A DecisionLog attached mid-run must not inherit capture-less entries.
  EXPECT_EQ(cache.lookup(e.ids, e.profiles, /*need_capture=*/true, 2),
            nullptr);
  // Different profile bits miss even with identical ids.
  auto profiles2 = e.profiles;
  profiles2[1][3] += 1e-12;
  EXPECT_EQ(cache.lookup(e.ids, profiles2, /*need_capture=*/false, 2),
            nullptr);
}

// ---------------------------------------------------------------------
// End-to-end: the incremental scheduler against the full rebuild.

std::vector<JobView> make_queue(Rng& rng, JobId& next_id, int n) {
  std::vector<JobView> queue;
  for (int i = 0; i < n; ++i) {
    JobView v;
    v.id = next_id++;
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

void churn_queue(Rng& rng, JobId& next_id, std::vector<JobView>& queue) {
  const int removals = rng.uniform_int(0, 8);
  for (int i = 0; i < removals && !queue.empty(); ++i) {
    const auto victim = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(queue.size()) - 1));
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  const auto fresh = make_queue(rng, next_id, rng.uniform_int(0, 8));
  queue.insert(queue.end(), fresh.begin(), fresh.end());
  // Attained service drifts for a random subset — priority reshuffles
  // reorder components between rounds and must not break equivalence.
  for (JobView& v : queue) {
    if (rng.uniform_int(0, 3) == 0) v.attained_service += rng.uniform(0, 50);
  }
}

bool same_plan(const std::vector<PlannedGroup>& a,
               const std::vector<PlannedGroup>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].members != b[i].members) return false;
    if (a[i].num_gpus != b[i].num_gpus) return false;
    if (a[i].mode != b[i].mode) return false;
    if (a[i].slots != b[i].slots) return false;
    if (a[i].offsets != b[i].offsets) return false;
    if (a[i].planned_period != b[i].planned_period) return false;  // bitwise
  }
  return true;
}

// Plans from a persistent incremental scheduler must be bit-identical to
// a full rebuild, round after round, across thread counts, top_k on and
// off, and priority policies.
TEST(IncrementalScheduler, PlansBitIdenticalToRebuildUnderChurn) {
  for (std::uint64_t seed : {13u, 99u}) {
    for (int top_k : {0, 4}) {
      for (int threads : {1, 4}) {
        for (bool known : {false, true}) {
          MuriOptions base;
          base.durations_known = known;
          base.num_threads = threads;
          base.top_k = top_k;
          base.component_cap = 8;
          base.candidate_cap = 256;
          MuriOptions incr = base;
          incr.incremental = true;
          MuriScheduler rebuild(base);
          MuriScheduler incremental(incr);
          ASSERT_EQ(rebuild.name(), incremental.name());

          Rng rng(seed);
          JobId next_id = 0;
          auto queue = make_queue(rng, next_id, 60);
          SchedulerContext ctx;
          ctx.total_gpus = 16;
          ctx.gpus_per_machine = 8;
          ctx.durations_known = known;
          for (int round = 0; round < 12; ++round) {
            const auto want = rebuild.schedule(queue, ctx);
            const auto got = incremental.schedule(queue, ctx);
            ASSERT_TRUE(same_plan(want, got))
                << "seed=" << seed << " top_k=" << top_k
                << " threads=" << threads << " known=" << known
                << " round=" << round;
            churn_queue(rng, next_id, queue);
          }
        }
      }
    }
  }
}

// Same loop with DecisionLogs attached: the logs must be byte-equal —
// the provenance a replay or explain query sees cannot depend on which
// mode produced it. Also covers attaching a log to a *warm* incremental
// scheduler (cached capture-less components must re-run, not dodge
// their match_round records).
TEST(IncrementalScheduler, DecisionLogBytesEqualRebuild) {
  for (int top_k : {0, 4}) {
    MuriOptions base;
    base.top_k = top_k;
    base.component_cap = 8;
    base.candidate_cap = 256;
    base.num_threads = 2;
    MuriOptions incr = base;
    incr.incremental = true;
    MuriScheduler rebuild(base);
    MuriScheduler incremental(incr);

    Rng rng(31);
    JobId next_id = 0;
    auto queue = make_queue(rng, next_id, 50);
    SchedulerContext ctx;
    ctx.total_gpus = 16;
    ctx.gpus_per_machine = 8;
    const std::vector<JobId> no_dirty;
    ctx.dirty_jobs = &no_dirty;

    // Two warm rounds without logs: the incremental side caches
    // capture-less component results.
    for (int round = 0; round < 2; ++round) {
      (void)rebuild.schedule(queue, ctx);
      (void)incremental.schedule(queue, ctx);
      churn_queue(rng, next_id, queue);
    }
    obs::DecisionLog want_log;
    obs::DecisionLog got_log;
    rebuild.set_decision_log(&want_log);
    incremental.set_decision_log(&got_log);
    for (int round = 0; round < 6; ++round) {
      const auto want = rebuild.schedule(queue, ctx);
      const auto got = incremental.schedule(queue, ctx);
      ASSERT_TRUE(same_plan(want, got)) << "top_k=" << top_k;
      churn_queue(rng, next_id, queue);
    }
    ASSERT_EQ(want_log.jsonl(), got_log.jsonl()) << "top_k=" << top_k;
  }
}

// The flattened (bucket, component) fan-out: a threaded incremental
// scheduler with many components in several buckets must match the serial
// one round for round — in its plans and in every work counter, since
// caches and counters are folded serially in (bucket, component) order.
TEST(IncrementalScheduler, FlattenedFanOutMatchesSerialWorkUnderChurn) {
  MuriOptions serial_opt;
  serial_opt.top_k = 8;
  serial_opt.component_cap = 8;
  serial_opt.candidate_cap = 256;
  serial_opt.incremental = true;
  serial_opt.num_threads = 1;
  MuriOptions threaded_opt = serial_opt;
  threaded_opt.num_threads = 4;
  MuriScheduler serial(serial_opt);
  MuriScheduler threaded(threaded_opt);

  Rng rng(57);
  JobId next_id = 0;
  auto queue = make_queue(rng, next_id, 160);
  SchedulerContext ctx;
  ctx.total_gpus = 128;
  ctx.gpus_per_machine = 8;
  std::int64_t reused_components = 0;
  for (int round = 0; round < 12; ++round) {
    const auto want = serial.schedule(queue, ctx);
    const auto got = threaded.schedule(queue, ctx);
    ASSERT_TRUE(same_plan(want, got)) << "round=" << round;
    const GroupingStats& a = serial.last_round_stats();
    const GroupingStats& b = threaded.last_round_stats();
    EXPECT_EQ(a.matchings_run, b.matchings_run) << "round=" << round;
    EXPECT_EQ(a.cache_misses, b.cache_misses) << "round=" << round;
    EXPECT_EQ(a.edges_reused, b.edges_reused) << "round=" << round;
    EXPECT_EQ(a.edges_patched, b.edges_patched) << "round=" << round;
    EXPECT_EQ(a.components_total, b.components_total) << "round=" << round;
    EXPECT_EQ(a.components_reused, b.components_reused) << "round=" << round;
    EXPECT_EQ(a.components_trivial, b.components_trivial)
        << "round=" << round;
    // The workload really spreads: several non-trivial components, and
    // the warm rounds fold some of them forward.
    EXPECT_GT(a.components_total - a.components_trivial, 4)
        << "round=" << round;
    reused_components += a.components_reused;
    churn_queue(rng, next_id, queue);
  }
  EXPECT_GT(reused_components, 0);
}

// The whole point: a warm incremental scheduler on an unchanged queue
// folds everything forward — components reused, no γ recomputed — and
// under churn the patched-edge count stays near the churned jobs, not
// the full graph.
TEST(IncrementalScheduler, WarmRoundsFoldWorkForward) {
  MuriOptions opt;
  opt.top_k = 4;
  opt.component_cap = 8;
  opt.candidate_cap = 256;
  opt.incremental = true;
  MuriScheduler sched(opt);

  Rng rng(17);
  JobId next_id = 0;
  auto queue = make_queue(rng, next_id, 60);
  SchedulerContext ctx;
  ctx.total_gpus = 16;
  ctx.gpus_per_machine = 8;

  (void)sched.schedule(queue, ctx);  // cold round: everything patched
  const auto& cold = sched.last_round_stats();
  EXPECT_GT(cold.components_total, 0);
  EXPECT_EQ(cold.components_reused, 0);
  EXPECT_GT(cold.edges_patched, 0);
  EXPECT_GT(cold.dirty_jobs, 0);  // all arrivals

  (void)sched.schedule(queue, ctx);  // identical queue: full reuse
  const auto& warm = sched.last_round_stats();
  // Every component either folds forward from the cache or is a trivial
  // single-member component served by the direct path.
  EXPECT_EQ(warm.components_reused + warm.components_trivial,
            warm.components_total);
  EXPECT_EQ(warm.edges_patched, 0);
  EXPECT_EQ(warm.dirty_jobs, 0);
  EXPECT_EQ(warm.matchings_run, 0);
}

}  // namespace
}  // namespace muri
