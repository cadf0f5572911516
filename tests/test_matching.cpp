#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <tuple>

#include "common/rng.h"
#include "interleave/efficiency.h"
#include "job/model.h"
#include "matching/blossom.h"
#include "matching/brute_force.h"
#include "matching/graph.h"

namespace muri {
namespace {

DenseGraph make_graph(int n,
                      const std::vector<std::tuple<int, int, double>>& edges) {
  DenseGraph g(n);
  for (const auto& [u, v, w] : edges) g.set_weight(u, v, w);
  return g;
}

TEST(DenseGraph, SymmetricWeights) {
  DenseGraph g(3);
  g.set_weight(0, 2, 1.5);
  EXPECT_DOUBLE_EQ(g.weight(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(g.weight(2, 0), 1.5);
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 0.0);
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(DenseGraph, SelfLoopIgnored) {
  DenseGraph g(2);
  g.set_weight(1, 1, 9.0);
  EXPECT_DOUBLE_EQ(g.weight(1, 1), 0.0);
}

TEST(DenseGraph, ValidateCatchesAsymmetry) {
  DenseGraph g(3);
  g.set_weight(0, 1, 1.0);
  Matching m;
  m.mate = {1, -1, -1};  // 0 matched to 1, but 1 not matched back
  EXPECT_FALSE(g.validate(m));
  m.mate = {1, 0, -1};
  EXPECT_TRUE(g.validate(m));
}

TEST(DenseGraph, ValidateCatchesNonEdgeMatch) {
  DenseGraph g(2);  // no edges
  Matching m;
  m.mate = {1, 0};
  EXPECT_FALSE(g.validate(m));
}

TEST(Blossom, EmptyAndSingleton) {
  DenseGraph g0(0);
  EXPECT_EQ(max_weight_matching(g0).pairs, 0);
  DenseGraph g1(1);
  const Matching m = max_weight_matching(g1);
  EXPECT_EQ(m.pairs, 0);
  EXPECT_EQ(m.mate[0], -1);
}

TEST(Blossom, SingleEdge) {
  auto g = make_graph(2, {{0, 1, 0.7}});
  const Matching m = max_weight_matching(g);
  EXPECT_TRUE(g.validate(m));
  EXPECT_EQ(m.pairs, 1);
  EXPECT_DOUBLE_EQ(m.weight, 0.7);
}

TEST(Blossom, PrefersHeavierOfTwoDisjointChoices) {
  // Path 0-1-2: can match (0,1) xor (1,2).
  auto g = make_graph(3, {{0, 1, 0.3}, {1, 2, 0.9}});
  const Matching m = max_weight_matching(g);
  EXPECT_TRUE(g.validate(m));
  EXPECT_DOUBLE_EQ(m.weight, 0.9);
  EXPECT_EQ(m.mate[1], 2);
  EXPECT_EQ(m.mate[0], -1);
}

TEST(Blossom, MaxWeightBeatsMaxCardinality) {
  // Path 0-1-2-3 with a heavy middle edge: matching only (1,2) with weight
  // 5 beats matching (0,1)+(2,3) with weight 2+2=4.
  auto g = make_graph(4, {{0, 1, 2.0}, {1, 2, 5.0}, {2, 3, 2.0}});
  const Matching m = max_weight_matching(g);
  EXPECT_TRUE(g.validate(m));
  EXPECT_DOUBLE_EQ(m.weight, 5.0);
  EXPECT_EQ(m.pairs, 1);
}

TEST(Blossom, OddCycleRequiresBlossomReasoning) {
  // Triangle with equal weights: only one edge can match.
  auto g = make_graph(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}});
  const Matching m = max_weight_matching(g);
  EXPECT_TRUE(g.validate(m));
  EXPECT_EQ(m.pairs, 1);
  EXPECT_DOUBLE_EQ(m.weight, 1.0);
}

TEST(Blossom, FiveCycleWithPendant) {
  // Classic blossom case: odd cycle 0-1-2-3-4-0 plus pendant 5 on node 0.
  auto g = make_graph(6, {{0, 1, 1.0},
                          {1, 2, 1.0},
                          {2, 3, 1.0},
                          {3, 4, 1.0},
                          {4, 0, 1.0},
                          {0, 5, 1.0}});
  const Matching m = max_weight_matching(g);
  EXPECT_TRUE(g.validate(m));
  EXPECT_EQ(m.pairs, 3);  // perfect matching exists: (0,5),(1,2),(3,4)
  EXPECT_EQ(m.mate[5], 0);
}

TEST(Blossom, PaperFigure5Example) {
  // Figure 5: jobs A,B,C,D; γ(A,B)=γ(C,D)=1, γ(A,C)=γ(B,D)=0.75 (plus the
  // other cross pairs). Plan 1 {A,B},{C,D} must win over plan 2.
  auto g = make_graph(4, {{0, 1, 1.0},
                          {2, 3, 1.0},
                          {0, 2, 0.75},
                          {1, 3, 0.75},
                          {0, 3, 0.75},
                          {1, 2, 0.75}});
  const Matching m = max_weight_matching(g);
  EXPECT_TRUE(g.validate(m));
  EXPECT_EQ(m.mate[0], 1);
  EXPECT_EQ(m.mate[2], 3);
  EXPECT_DOUBLE_EQ(m.weight, 2.0);
}

TEST(Greedy, CanBeSuboptimal) {
  // Greedy takes (1,2) with 5, blocking (0,1)+(2,3) worth 4+4=8.
  auto g = make_graph(4, {{0, 1, 4.0}, {1, 2, 5.0}, {2, 3, 4.0}});
  const Matching greedy = greedy_matching(g);
  const Matching optimal = max_weight_matching(g);
  EXPECT_TRUE(g.validate(greedy));
  EXPECT_TRUE(g.validate(optimal));
  EXPECT_DOUBLE_EQ(greedy.weight, 5.0);
  EXPECT_DOUBLE_EQ(optimal.weight, 8.0);
}

TEST(BruteForce, MatchesKnownOptimum) {
  auto g = make_graph(4, {{0, 1, 4.0}, {1, 2, 5.0}, {2, 3, 4.0}});
  const Matching m = brute_force_matching(g);
  EXPECT_TRUE(g.validate(m));
  EXPECT_DOUBLE_EQ(m.weight, 8.0);
}

// Property test: Blossom equals brute force on random graphs of varying
// size and density.
class BlossomRandomTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(BlossomRandomTest, AgreesWithBruteForce) {
  const auto [n, density, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  DenseGraph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.bernoulli(density)) {
        g.set_weight(u, v, rng.uniform(0.01, 1.0));
      }
    }
  }
  const Matching blossom = max_weight_matching(g);
  const Matching exact = brute_force_matching(g);
  EXPECT_TRUE(g.validate(blossom));
  EXPECT_NEAR(blossom.weight, exact.weight, 1e-6)
      << "n=" << n << " density=" << density << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, BlossomRandomTest,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 11, 14),
                       ::testing::Values(0.2, 0.5, 0.9, 1.0),
                       ::testing::Range(0, 8)));

// Property test: integer-weight graphs where ties abound (stress for the
// dual updates) still match brute force.
class BlossomIntegerTest : public ::testing::TestWithParam<int> {};

TEST_P(BlossomIntegerTest, AgreesWithBruteForceOnSmallIntegerWeights) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const int n = 10;
  DenseGraph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.bernoulli(0.7)) {
        g.set_weight(u, v, static_cast<double>(rng.uniform_int(1, 4)));
      }
    }
  }
  const Matching blossom = max_weight_matching(g);
  const Matching exact = brute_force_matching(g);
  EXPECT_TRUE(g.validate(blossom));
  EXPECT_NEAR(blossom.weight, exact.weight, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(TieHeavy, BlossomIntegerTest,
                         ::testing::Range(0, 16));

// Greedy is never better than Blossom, and Blossom is never better than
// brute force (sanity ordering).
TEST(MatcherOrdering, GreedyLeBlossomEqExact) {
  Rng rng(424242);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform_int(0, 9));
    DenseGraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        g.set_weight(u, v, rng.uniform(0.0, 1.0));
      }
    }
    const double wg = greedy_matching(g).weight;
    const double wb = max_weight_matching(g).weight;
    const double we = brute_force_matching(g).weight;
    EXPECT_LE(wg, wb + 1e-9);
    EXPECT_NEAR(wb, we, 1e-6);
  }
}

TEST(Blossom, LargeCompleteGraphTerminatesAndIsValid) {
  Rng rng(99);
  const int n = 60;
  DenseGraph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      g.set_weight(u, v, rng.uniform(0.5, 1.0));
    }
  }
  const Matching m = max_weight_matching(g);
  EXPECT_TRUE(g.validate(m));
  // Complete graph with positive weights: perfect matching.
  EXPECT_EQ(m.pairs, n / 2);
}

// Pins Blossom's exact output, tie-breaking included, not only its optimal
// weight. One thread matches a seeded corpus whose sizes go large → small
// → large, so any state a matcher carries from one call to the next would
// show. Class-structured graphs price every pair with the pairwise γ of
// model-zoo profiles (8 models, so the many exact ties of a real round);
// the others draw distinct random weights at several densities. The
// digest folds every mate vector; a change to it is a behaviour change.
TEST(Blossom, MateDigestIsPinnedAcrossSizesOnOneThread) {
  const int sizes[] = {192, 150, 96, 41, 17, 6, 2, 3, 33, 64, 128, 160, 192};
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a 64
  const auto fold = [&](std::int64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= static_cast<std::uint64_t>(x >> (8 * byte)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  int graphs = 0;
  for (int si = 0; si < static_cast<int>(std::size(sizes)); ++si) {
    const int n = sizes[si];
    for (int kind = 0; kind < 4; ++kind) {
      Rng rng(static_cast<std::uint64_t>(si) * 1000 + kind);
      DenseGraph g(n);
      if (kind < 2) {
        // Class-structured: kind 0 is a 1-GPU bucket, kind 1 a 4-GPU one.
        std::vector<ResourceVector> profiles;
        for (int i = 0; i < n; ++i) {
          profiles.push_back(
              model_profile(kAllModels[static_cast<size_t>(
                                rng.uniform_int(0, kNumModels - 1))],
                            kind == 0 ? 1 : 4)
                  .stage_time);
        }
        for (int u = 0; u < n; ++u) {
          for (int v = u + 1; v < n; ++v) {
            g.set_weight(u, v,
                         pairwise_efficiency(profiles[static_cast<size_t>(u)],
                                             profiles[static_cast<size_t>(v)]));
          }
        }
      } else {
        // Distinct random weights: kind 2 complete, kind 3 at density 0.3.
        const double density = kind == 2 ? 1.0 : 0.3;
        for (int u = 0; u < n; ++u) {
          for (int v = u + 1; v < n; ++v) {
            if (rng.bernoulli(density)) {
              g.set_weight(u, v, rng.uniform(0.01, 1.0));
            }
          }
        }
      }
      const Matching m = max_weight_matching(g);
      ASSERT_TRUE(g.validate(m)) << "n=" << n << " kind=" << kind;
      fold(n);
      for (int mate : m.mate) fold(mate);
      ++graphs;
    }
  }
  EXPECT_EQ(graphs, 52);
  EXPECT_EQ(digest, 0x7e2037b2368cc875ull);
}

TEST(BruteForceGrouping, PartitionsIntoBestGroups) {
  // 4 items; pair weights via a closure; groups of up to 2 reduce to
  // matching.
  auto weight_of = [](const std::vector<int>& members) {
    if (members.size() != 2) return 0.0;
    static const double w[4][4] = {{0, 1.0, 0.75, 0.75},
                                   {1.0, 0, 0.75, 0.75},
                                   {0.75, 0.75, 0, 1.0},
                                   {0.75, 0.75, 1.0, 0}};
    return w[members[0]][members[1]];
  };
  const Grouping grouping = brute_force_grouping(4, 2, weight_of);
  EXPECT_DOUBLE_EQ(grouping.weight, 2.0);
}

TEST(BruteForceGrouping, UsesLargerGroupsWhenBetter) {
  // A single 3-group worth 10 beats any pairing (max pair weight 1).
  auto weight_of = [](const std::vector<int>& members) {
    if (members.size() == 3) return 10.0;
    if (members.size() == 2) return 1.0;
    return 0.0;
  };
  const Grouping grouping = brute_force_grouping(3, 3, weight_of);
  EXPECT_DOUBLE_EQ(grouping.weight, 10.0);
  bool has_triple = false;
  for (const auto& g : grouping.groups) {
    if (g.size() == 3) has_triple = true;
  }
  EXPECT_TRUE(has_triple);
}

}  // namespace
}  // namespace muri
