// The class-count quotient (src/matching/quotient): its b-matching solve,
// certificate and node mapping, and its exactness against Blossom on
// every stage graph it certifies.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <vector>

#include "common/rng.h"
#include "interleave/efficiency.h"
#include "job/model.h"
#include "matching/blossom.h"
#include "matching/capture.h"
#include "matching/quotient.h"
#include "scheduler/muri.h"

namespace muri {
namespace {

std::int64_t integer_weight(const DenseGraph& g, const Matching& m) {
  std::int64_t total = 0;
  for (int u = 0; u < g.size(); ++u) {
    const int v = m.mate[static_cast<size_t>(u)];
    if (v > u) total += quantize_weight(g.weight(u, v));
  }
  return total;
}

// Integer totals of match_typed_graph against Blossom over many stages.
struct Tally {
  int stages = 0;
  int certified = 0;
  int fallbacks = 0;
  int mismatches = 0;
};

void check_stage(const TypedGraph& g, Tally& tally) {
  const DenseGraph dense = expand(g);
  const std::int64_t want = integer_weight(dense, max_weight_matching(dense));
  StageSolver how = StageSolver::kDense;
  const Matching m = match_typed_graph(g, &how);
  ASSERT_TRUE(dense.validate(m)) << "n=" << g.size();
  ++tally.stages;
  if (how == StageSolver::kQuotient) ++tally.certified;
  if (how == StageSolver::kFallback) ++tally.fallbacks;
  if (integer_weight(dense, m) != want) ++tally.mismatches;
}

// Node types by bitwise-equal member profile sequences.
struct TypeIndex {
  std::map<std::vector<std::uint64_t>, int> ids;
  int of(const std::vector<ResourceVector>& members) {
    std::vector<std::uint64_t> bits(members.size() * kNumResources);
    std::memcpy(bits.data(), members.data(),
                bits.size() * sizeof(std::uint64_t));
    return ids.try_emplace(bits, static_cast<int>(ids.size())).first->second;
  }
};

ResourceVector zoo(Rng& rng, int gpus) {
  const auto model = rng.uniform_int(0, kNumModels - 1);
  return model_profile(kAllModels[static_cast<size_t>(model)], gpus).stage_time;
}

// The pairwise-γ graphs of Blossom.MateDigestIsPinnedAcrossSizesOnOneThread
// (test_matching.cpp), rebuilt as typed graphs: a model-zoo node's type is
// its profile; a node of a distinct-weight graph is its own type.
void mate_digest_corpus(Tally& tally) {
  const int sizes[] = {192, 150, 96, 41, 17, 6, 2, 3, 33, 64, 128, 160, 192};
  for (int si = 0; si < static_cast<int>(std::size(sizes)); ++si) {
    const int n = sizes[si];
    for (int kind = 0; kind < 4; ++kind) {
      Rng rng(static_cast<std::uint64_t>(si) * 1000 + kind);
      TypedGraph g;
      if (kind < 2) {
        std::vector<ResourceVector> profiles;
        for (int i = 0; i < n; ++i) {
          profiles.push_back(zoo(rng, kind == 0 ? 1 : 4));
        }
        TypeIndex types;
        std::vector<ResourceVector> of_type;
        for (const ResourceVector& p : profiles) {
          const int t = types.of({p});
          if (t == static_cast<int>(of_type.size())) of_type.push_back(p);
          g.type_of.push_back(t);
        }
        g.types = static_cast<int>(of_type.size());
        for (const ResourceVector& a : of_type) {
          for (const ResourceVector& b : of_type) {
            g.weight.push_back(pairwise_efficiency(a, b));
          }
        }
      } else {
        const double density = kind == 2 ? 1.0 : 0.3;
        g.types = n;
        g.weight.assign(static_cast<size_t>(n) * n, 0.0);
        for (int u = 0; u < n; ++u) {
          g.type_of.push_back(u);
          for (int v = u + 1; v < n; ++v) {
            if (rng.bernoulli(density)) {
              g.weight[static_cast<size_t>(u) * n + v] = rng.uniform(0.01, 1.0);
            }
          }
        }
      }
      check_stage(g, tally);
    }
  }
}

// Every captured stage of the MultiRoundGrouping.GroupDigestIsPinnedOnZooQueues
// queues (test_muri_grouping.cpp): stage 0 over single jobs, stage 1 over
// the merged pairs, a node's type its ordered member profiles.
void group_digest_corpus(Tally& tally, int& stage1_stages) {
  std::vector<std::vector<ResourceVector>> queues;
  const int sizes[] = {192, 140, 96, 48, 17};
  for (int si = 0; si < static_cast<int>(std::size(sizes)); ++si) {
    for (int gpus : {1, 4}) {
      Rng rng(static_cast<std::uint64_t>(si) * 100 +
              static_cast<std::uint64_t>(gpus));
      std::vector<ResourceVector> profiles;
      for (int i = 0; i < sizes[si]; ++i) profiles.push_back(zoo(rng, gpus));
      queues.push_back(std::move(profiles));
    }
  }
  Rng pick(7);
  Rng jitter(7);
  std::vector<ResourceVector> distinct;
  for (int i = 0; i < 96; ++i) distinct.push_back(zoo(pick, 1));
  for (ResourceVector& p : distinct) {
    for (double& t : p) {
      if (t > 0) t *= jitter.uniform(0.9, 1.1);
    }
  }
  queues.push_back(std::move(distinct));

  for (const auto& profiles : queues) {
    GroupingCapture capture;
    multi_round_grouping(profiles, 4, nullptr, &capture);
    for (const MatchingRoundRecord& rec : capture.rounds) {
      TypeIndex types;
      TypedGraph g;
      for (const auto& members : rec.nodes) {
        std::vector<ResourceVector> seq;
        for (int idx : members) {
          seq.push_back(profiles[static_cast<size_t>(idx)]);
        }
        g.type_of.push_back(types.of(seq));
      }
      g.types = static_cast<int>(types.ids.size());
      g.weight.assign(static_cast<size_t>(g.types) * g.types, 0.0);
      for (const auto& e : rec.edges) {
        g.weight[static_cast<size_t>(g.type_of[static_cast<size_t>(e.u)]) *
                     g.types +
                 static_cast<size_t>(g.type_of[static_cast<size_t>(e.v)])] =
            e.gamma;
      }
      if (rec.stage == 1) ++stage1_stages;
      check_stage(g, tally);
    }
  }
}

// A random class-structured stage: `classes` types with the given counts,
// nodes in a random order, weights by `mode`: 0 model-zoo pairwise γ
// (stage 0), 1 model-zoo γ of 1- and 2-job nodes merged (stage 1), 2
// tie-heavy integers in {0, 1, 2, 3}, 3 distinct reals with some zeros.
TypedGraph random_stage(Rng& rng, const std::vector<int>& counts, int mode) {
  const int types = static_cast<int>(counts.size());
  TypedGraph g;
  g.types = types;
  for (int t = 0; t < types; ++t) {
    for (int i = 0; i < counts[static_cast<size_t>(t)]; ++i) {
      g.type_of.push_back(t);
    }
  }
  for (int i = static_cast<int>(g.type_of.size()) - 1; i > 0; --i) {
    std::swap(g.type_of[static_cast<size_t>(i)],
              g.type_of[static_cast<size_t>(rng.uniform_int(0, i))]);
  }
  g.weight.assign(static_cast<size_t>(types) * types, 0.0);
  const auto cell = [&](int t, int s) -> double& {
    return g.weight[static_cast<size_t>(t) * types + s];
  };
  if (mode <= 1) {
    const int gpus = rng.bernoulli(0.5) ? 1 : 4;
    std::vector<std::vector<ResourceVector>> members(
        static_cast<size_t>(types));
    for (auto& m : members) {
      m.push_back(zoo(rng, gpus));
      if (mode == 1 && rng.bernoulli(0.7)) m.push_back(zoo(rng, gpus));
    }
    PlanScratch scratch;
    std::vector<ResourceVector> group;
    for (int t = 0; t < types; ++t) {
      for (int s = 0; s < types; ++s) {
        group = members[static_cast<size_t>(t)];
        group.insert(group.end(), members[static_cast<size_t>(s)].begin(),
                     members[static_cast<size_t>(s)].end());
        const double gamma = interleave_efficiency(group, scratch);
        cell(t, s) = gamma > 0 ? gamma : 0.0;
      }
    }
  } else {
    for (int t = 0; t < types; ++t) {
      for (int s = t; s < types; ++s) {
        const double w =
            mode == 2 ? static_cast<double>(rng.uniform_int(0, 3))
                      : (rng.bernoulli(0.85) ? rng.uniform(0.01, 1.0) : 0.0);
        cell(t, s) = w;
        cell(s, t) = w;
      }
    }
  }
  return g;
}

TEST(QuotientMatching, SolvesHandInstances) {
  // One class of five: two pairs.
  QuotientSolution one = solve_quotient({5}, {7});
  ASSERT_TRUE(one.certified);
  EXPECT_EQ(one.pairs_of(0, 0), 2);
  EXPECT_EQ(one.weight, 14);
  // A triangle of single nodes: the LP's vertex is ½ on every edge until
  // the odd-set row of all three classes cuts it off.
  QuotientSolution triangle =
      solve_quotient({1, 1, 1}, {0, 5, 5, 5, 0, 5, 5, 5, 0});
  ASSERT_TRUE(triangle.certified);
  EXPECT_EQ(triangle.weight, 5);
  EXPECT_FALSE(triangle.cuts.empty());
  // Self-pairs against a heavier cross pair: c = (3, 1), q00 = 4, q01 = 5.
  QuotientSolution mixed = solve_quotient({3, 1}, {4, 5, 5, 0});
  ASSERT_TRUE(mixed.certified);
  EXPECT_EQ(mixed.pairs_of(0, 0), 1);
  EXPECT_EQ(mixed.pairs_of(0, 1), 1);
  EXPECT_EQ(mixed.weight, 9);
  // No positive weight: nothing to match, trivially optimal.
  QuotientSolution none = solve_quotient({4, 2}, {0, 0, 0, 0});
  ASSERT_TRUE(none.certified);
  EXPECT_EQ(none.weight, 0);
}

TEST(QuotientMatching, CertificateIsAFeasibleDual) {
  Rng rng(31);
  int checked = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const int classes = 1 + static_cast<int>(rng.uniform_int(0, 9));
    std::vector<std::int64_t> counts;
    for (int a = 0; a < classes; ++a) counts.push_back(rng.uniform_int(1, 12));
    std::vector<std::int64_t> q(static_cast<size_t>(classes) * classes, 0);
    for (int a = 0; a < classes; ++a) {
      for (int b = a; b < classes; ++b) {
        const std::int64_t w = rng.uniform_int(0, 4) * 25'000'000;
        q[static_cast<size_t>(a) * classes + b] = w;
        q[static_cast<size_t>(b) * classes + a] = w;
      }
    }
    const QuotientSolution sol = solve_quotient(counts, q);
    if (!sol.certified) continue;
    ++checked;
    // Primal: degrees within the counts, weight recomputed.
    std::int64_t weight = 0;
    for (int a = 0; a < classes; ++a) {
      std::int64_t degree = sol.pairs_of(a, a);
      for (int b = 0; b < classes; ++b) degree += sol.pairs_of(a, b);
      EXPECT_LE(degree, counts[static_cast<size_t>(a)]);
      for (int b = a; b < classes; ++b) {
        EXPECT_GE(sol.pairs_of(a, b), 0);
        weight += sol.pairs_of(a, b) * q[static_cast<size_t>(a) * classes + b];
      }
    }
    EXPECT_EQ(weight, sol.weight);
    // Dual: every pair row covered, the bound recomputed, within 1 of V.
    long double bound = 0;
    for (int a = 0; a < classes; ++a) {
      EXPECT_GE(sol.y[static_cast<size_t>(a)], 0.0);
      bound += static_cast<long double>(counts[static_cast<size_t>(a)]) *
               sol.y[static_cast<size_t>(a)];
      for (int b = a; b < classes; ++b) {
        if (a == b && counts[static_cast<size_t>(a)] < 2) continue;
        long double cover = sol.y[static_cast<size_t>(a)];
        cover += sol.y[static_cast<size_t>(b)];
        for (const auto& [mask, z] : sol.cuts) {
          if ((mask >> a & 1u) != 0 && (mask >> b & 1u) != 0) cover += z;
        }
        EXPECT_GE(cover, static_cast<long double>(
                             q[static_cast<size_t>(a) * classes + b]));
      }
    }
    for (const auto& [mask, z] : sol.cuts) {
      EXPECT_GE(z, 0.0);
      std::int64_t c = 0;
      for (int a = 0; a < classes; ++a) {
        if ((mask >> a & 1u) != 0) c += counts[static_cast<size_t>(a)];
      }
      EXPECT_EQ(c % 2, 1);
      bound += static_cast<long double>(c / 2) * z;
    }
    EXPECT_EQ(bound, sol.dual_bound);
    EXPECT_LT(sol.dual_bound, static_cast<long double>(sol.weight) + 1);
  }
  EXPECT_GE(checked, 495);
}

TEST(QuotientMatching, MapsCountsInPriorityOrder) {
  // Classes A = {0, 2, 4} and B = {1, 3}; only A–B pairs weigh: two
  // pairs, A's first two members with B's in order, A's last one left.
  TypedGraph cross{2, {0, 1, 0, 1, 0}, {0.0, 1.0, 1.0, 0.0}};
  StageSolver how = StageSolver::kDense;
  Matching m = match_typed_graph(cross, &how);
  EXPECT_EQ(how, StageSolver::kQuotient);
  EXPECT_EQ(m.mate, (std::vector<int>{1, 0, 3, 2, -1}));
  EXPECT_EQ(m.pairs, 2);
  // Self-pairs come before the cross pairs of a class: A = {0, 1, 2},
  // B = {3}; A–A and A–B both weigh 1, so one pair of each.
  TypedGraph self{2, {0, 0, 0, 1}, {1.0, 1.0, 1.0, 0.0}};
  m = match_typed_graph(self, &how);
  EXPECT_EQ(how, StageSolver::kQuotient);
  EXPECT_EQ(m.mate, (std::vector<int>{1, 0, 3, 2}));
  // Types with equal rows merge: types 0 and 2 weigh the same against
  // everything, so there are two classes and three pairs.
  TypedGraph merged{3,
                    {0, 1, 2, 1, 0, 2},
                    {0.5, 0.9, 0.5, 0.9, 0.0, 0.9, 0.5, 0.9, 0.5}};
  m = match_typed_graph(merged, &how);
  EXPECT_EQ(how, StageSolver::kQuotient);
  EXPECT_EQ(m.pairs, 3);
  EXPECT_NEAR(m.weight, 0.9 * 2 + 0.5, 1e-12);
}

TEST(QuotientMatching, CertifiedTotalEqualsDenseStageByStage) {
  Tally corpus;
  mate_digest_corpus(corpus);
  int stage1 = 0;
  group_digest_corpus(corpus, stage1);
  EXPECT_EQ(corpus.mismatches, 0);
  EXPECT_GT(stage1, 0);
  // Most corpus stages are class-structured; the distinct-weight and
  // jittered graphs past kMaxQuotientClasses are not.
  EXPECT_GE(corpus.certified, corpus.stages / 2);
  EXPECT_EQ(corpus.fallbacks, 0);

  Tally random;
  Rng rng(2105);
  int max_count = 0;
  for (int i = 0; i < 10'000; ++i) {
    const int classes = 1 + i % kMaxQuotientClasses;
    const int mode = (i / kMaxQuotientClasses) % 4;
    // Mostly small counts, a few up to 192; at most 192 nodes in all
    // (Blossom's cost at that size bounds how many the test can afford).
    const double size_draw = rng.uniform();
    const int limit = size_draw < 0.7    ? 8
                      : size_draw < 0.95 ? 24
                      : size_draw < 0.995 ? 64
                                          : 192;
    std::vector<int> counts;
    int total = 0;
    if (classes == 1 && i % 500 == 0) counts.push_back(192);  // the largest
    for (int a = static_cast<int>(counts.size()); a < classes; ++a) {
      const int room = 192 - total - (classes - a - 1);
      const int c = std::min(static_cast<int>(rng.uniform_int(1, limit)), room);
      counts.push_back(c);
      total += c;
    }
    for (int c : counts) max_count = std::max(max_count, c);
    const TypedGraph g = random_stage(rng, counts, mode);
    check_stage(g, random);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(random.mismatches, 0);
  EXPECT_EQ(max_count, 192);
  EXPECT_EQ(random.stages, 10'000);
  // Two-node graphs with no positive weight aside, the quotient certifies
  // nearly every random stage.
  EXPECT_LE(random.fallbacks, random.stages / 100);
  EXPECT_GE(random.certified, random.stages * 9 / 10);
}

TEST(QuotientMatching, FallbackIsBlossomMateForMate) {
  Rng rng(77);
  const auto expect_dense = [](const TypedGraph& g) {
    StageSolver how = StageSolver::kQuotient;
    const Matching m = match_typed_graph(g, &how);
    EXPECT_EQ(how, StageSolver::kDense);
    EXPECT_EQ(m.mate, max_weight_matching(expand(g)).mate);
  };
  // More classes than the bound: 12 types of two nodes, distinct weights.
  std::vector<int> twelve(12, 2);
  expect_dense(random_stage(rng, twelve, 3));
  // An asymmetric table: both orders of the type pair are read and
  // quantize differently.
  TypedGraph asym{2, {0, 1, 0, 1, 1, 0}, {0.25, 0.5, 0.7, 0.25}};
  expect_dense(asym);
  // All-distinct profiles: jittered model-zoo jobs, each its own type.
  std::vector<ResourceVector> profiles;
  for (int i = 0; i < 40; ++i) {
    ResourceVector p = zoo(rng, 1);
    for (double& t : p) {
      if (t > 0) t *= rng.uniform(0.9, 1.1);
    }
    profiles.push_back(p);
  }
  TypedGraph distinct;
  distinct.types = 40;
  for (int u = 0; u < 40; ++u) {
    distinct.type_of.push_back(u);
    for (int v = 0; v < 40; ++v) {
      distinct.weight.push_back(
          u == v ? 0.0
                 : pairwise_efficiency(profiles[static_cast<size_t>(u)],
                                       profiles[static_cast<size_t>(v)]));
    }
  }
  expect_dense(distinct);
  // Twelve of those jobs: few enough types to classify, but twelve
  // distinct rows are twelve classes, over the bound.
  TypedGraph few;
  few.types = 12;
  few.type_of.clear();
  few.weight.clear();
  for (int u = 0; u < 12; ++u) {
    few.type_of.push_back(u);
    for (int v = 0; v < 12; ++v) {
      few.weight.push_back(
          u == v ? 0.0
                 : pairwise_efficiency(profiles[static_cast<size_t>(u)],
                                       profiles[static_cast<size_t>(v)]));
    }
  }
  expect_dense(few);
}

}  // namespace
}  // namespace muri
