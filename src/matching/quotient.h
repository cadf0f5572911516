// Maximum weight matching by profile class — the class-count quotient.
//
// The profiler caches one profile per (model, GPU count), so the n ≤ 192
// nodes of a grouping stage carry a handful of distinct profiles, and the
// γ weight of a node pair depends only on the two nodes' classes. The
// maximum weight matching of such a graph is a maximum weight b-matching
// over its S classes: choose x_ab ≥ 0 node pairs between classes a and b
// (a self-pair a = b uses two members of class a) with
//   Σ_{b≠a} x_ab + 2·x_aa ≤ c_a   for every class a,
// maximizing Σ_{a≤b} q_ab·x_ab. That is S(S+1)/2 integer unknowns instead
// of a Blossom over n nodes: O(n³) becomes a solve over at most 55 counts.
//
// solve_quotient solves the b-matching LP by simplex and adds Edmonds'
// odd-set rows x(E[U]) ≤ ⌊c(U)/2⌋ (U a class subset with odd c(U)) until
// none is violated; by Edmonds' b-matching polytope theorem the final
// vertex is then integral. Nothing is used without a certificate: the
// rounded primal is checked exactly in int64 (value V), the LP duals are
// lifted until they are feasible (value D), and the solve is certified
// iff D < V + 1 — weak duality plus integer weights then prove V optimal.
// An uncertified solve (a fractional vertex, a simplex that did not
// converge) is reported, and the caller falls back to Blossom.
//
// match_typed_graph is the stage-level entry point the grouping calls: it
// checks that a stage's quantized weights really are class-structured,
// solves the quotient, maps the counts onto nodes by a fixed rule, and
// runs the dense max_weight_matching on every stage where any of that
// does not hold.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "matching/graph.h"

namespace muri {

// Largest class count the quotient solves. Separation enumerates the 2^S
// class subsets, and past ~10 classes a stage is no longer "few classes".
inline constexpr int kMaxQuotientClasses = 10;

// Largest number of node types match_typed_graph tries to merge into
// classes; a stage with more types goes dense without classifying.
inline constexpr int kMaxQuotientTypes = 32;

struct QuotientSolution {
  int classes = 0;
  // pairs[a * classes + b] == pairs[b * classes + a]: node pairs matched
  // between classes a and b; pairs[a * classes + a] within class a.
  std::vector<std::int64_t> pairs;
  // Σ_{a≤b} q_ab · x_ab, exact.
  std::int64_t weight = 0;
  // The certificate: a feasible dual of the odd-set LP, in weight units.
  // y[a] prices class a's degree row (already lifted), `cuts` the odd-set
  // rows as (class bitmask, dual) pairs, and dual_bound is their
  // objective Σ c_a·y_a + Σ ⌊c(U)/2⌋·z_U, an upper bound on every
  // b-matching's weight.
  std::vector<double> y;
  std::vector<std::pair<std::uint32_t, double>> cuts;
  long double dual_bound = 0;
  // dual_bound < weight + 1: `pairs` is a maximum weight b-matching.
  bool certified = false;

  std::int64_t pairs_of(int a, int b) const {
    return pairs[static_cast<size_t>(a) * static_cast<size_t>(classes) +
                 static_cast<size_t>(b)];
  }
};

// Maximum weight b-matching over S = counts.size() ≤ kMaxQuotientClasses
// classes. `counts[a]` ≥ 1 is class a's size; `weights` is the symmetric
// S × S table of quantized integer weights (0: no edge; the diagonal is
// the weight of a pair inside a class and is read only when counts[a] ≥
// 2). Returns the counts with their certificate; use them only when
// `certified`.
QuotientSolution solve_quotient(const std::vector<std::int64_t>& counts,
                                const std::vector<std::int64_t>& weights);

// A stage graph whose weights depend only on node types: node u has type
// type_of[u] in [0, types), and a node pair u < v weighs
// weight[type_of[u] * types + type_of[v]] (≤ 0: no edge). A cell that no
// pair u < v reads may hold anything, NaN included. Nodes are in priority
// order: a lower index is a higher priority.
struct TypedGraph {
  int types = 0;
  std::vector<int> type_of;
  std::vector<double> weight;

  int size() const { return static_cast<int>(type_of.size()); }
  // Weight of the node pair u < v.
  double pair_weight(int u, int v) const {
    return weight[static_cast<size_t>(type_of[static_cast<size_t>(u)]) *
                      static_cast<size_t>(types) +
                  static_cast<size_t>(type_of[static_cast<size_t>(v)])];
  }
};

// How match_typed_graph solved a stage.
enum class StageSolver {
  kDense,     // the precondition failed: Blossom over every node pair
  kQuotient,  // a certified class-count solve
  kFallback,  // the quotient ran but was not certified: Blossom
};

// Maximum weight matching of `g`, exact in integer weight (quantize_weight
// of each edge) on every path.
//
// The quotient runs when the input allows it: types (at most
// kMaxQuotientTypes) merge into classes where their quantized rows are
// equal, every type pair's weight is one value whichever node comes
// first, and there are at most kMaxQuotientClasses classes. It then maps
// the certified counts onto nodes by a fixed rule: each class's members
// are taken in node-index order, the class pairs (a ≤ b) in lexicographic
// order, a self-pair matching consecutive members and a cross pair the
// i-th taken member of a with the i-th of b; a class's unmatched members
// are its last (lowest-priority) ones. Otherwise, and when the solve is
// not certified, it runs max_weight_matching over every node pair.
//
// In builds without NDEBUG every certified solve is checked against the
// dense matcher's integer total.
Matching match_typed_graph(const TypedGraph& g, StageSolver* solver = nullptr);

// `g` as a DenseGraph: every pair u < v with a positive weight. The Debug
// cross-check and the tests compare against Blossom on it.
DenseGraph expand(const TypedGraph& g);

}  // namespace muri
