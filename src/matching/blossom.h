// Maximum weight matching in general graphs — the Blossom algorithm.
//
// Muri (§4.1) reduces optimal 2-resource job grouping to maximum weighted
// matching: jobs are nodes, the weight of (u, v) is the interleaving
// efficiency γ(u, v), and the optimal grouping plan is the maximum weight
// matching. This file implements the primal-dual O(V³) Blossom algorithm
// for general (non-bipartite) graphs, including odd-cycle ("blossom")
// contraction and expansion and integral dual maintenance.
//
// Weights are accepted as doubles and quantized to 64-bit integers
// (kWeightScale steps) so the dual-variable arithmetic stays exact; the
// returned matching weight is recomputed from the original doubles.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "matching/graph.h"

namespace muri {

// Quantization factor for double weights. With efficiencies in [0, k] the
// quantization error per edge is below 1e-8, far under any meaningful
// difference between grouping plans.
inline constexpr double kWeightScale = 1e8;

// The integer weight a matcher solves on for an edge of weight w > 0:
// llround(w × kWeightScale), at least 1 so every positive edge stays an
// edge. Blossom and the class-count quotient (matching/quotient) both
// quantize through here, so they optimize the same integer objective.
inline std::int64_t quantize_weight(double w) {
  return std::max<std::int64_t>(
      static_cast<std::int64_t>(std::llround(w * kWeightScale)), 1);
}

// Computes a maximum weight matching of `graph`. Edges with weight <= 0 are
// treated as absent. Runs in O(V^3). The result satisfies
// graph.validate(result). Each calling thread keeps one matcher workspace
// (see BlossomMatcher::reset) sized for the largest graph it has matched,
// so calls from different threads never share state.
Matching max_weight_matching(const DenseGraph& graph);

// The same over n nodes whose edge weights `weight(u, v)` (u < v) gives,
// for a caller that holds its weights in another form than a DenseGraph.
template <class Weight>
Matching max_weight_matching(int n, const Weight& weight);

// Greedy baseline: repeatedly match the heaviest remaining edge. Used for
// the "Muri w/o Blossom" ablation (Fig. 11) and as a lower bound in tests.
Matching greedy_matching(const DenseGraph& graph);

namespace detail {

// The Blossom machinery, exposed for white-box tests. Nodes are 0-indexed
// at the API boundary and 1-indexed internally; indices above n denote
// contracted blossoms.
class BlossomMatcher {
 public:
  // Prepares the matcher for a graph of n nodes with no edges; call it
  // before set_weight and solve. Buffers only grow, so a matcher reused
  // across calls allocates nothing once it has seen its largest graph.
  // Only the real-node blocks (weights, edge records) are rewritten:
  // add_blossom writes a blossom's row and column before the search reads
  // them.
  void reset(int n);

  // Sets the (symmetric) integer weight of edge (u, v); u, v 0-indexed.
  // Weights must be non-negative; 0 means no edge.
  void set_weight(int u, int v, std::int64_t w);

  // Runs the algorithm; returns mate[] 0-indexed with -1 for unmatched,
  // and the total integer weight via out-param.
  std::vector<int> solve(std::int64_t& total_weight);

 private:
  struct Edge {
    int u = 0;
    int v = 0;
    std::int64_t w = 0;
  };

  // Slack of e. A blossom row holds copies of original edges, so e.w is
  // the weight of the original edge (e.u, e.v).
  std::int64_t edge_delta(const Edge& e) const {
    return lab_[static_cast<size_t>(e.u)] + lab_[static_cast<size_t>(e.v)] -
           e.w * 2;
  }

  // Weight of the real edge (u, v), 1-indexed; 0 means no edge.
  std::int64_t& w_(int u, int v) {
    return weights_[static_cast<size_t>(u) * (n_ + 1) + v];
  }
  Edge& g_(int u, int v) { return edges_[static_cast<size_t>(u) * stride_ + v]; }
  const Edge& g_(int u, int v) const {
    return edges_[static_cast<size_t>(u) * stride_ + v];
  }
  int& flower_from_(int b, int x) {
    return flower_from_storage_[static_cast<size_t>(b) * (n_ + 1) + x];
  }

  // slack_d_[x], checked against the slack edge in debug builds wherever
  // the cache must be exact (x free or an S-node).
  std::int64_t slack_delta(int x) const {
    assert(s_[static_cast<size_t>(x)] == 1 ||
           slack_d_[static_cast<size_t>(x)] ==
               edge_delta(g_(slack_[static_cast<size_t>(x)], x)));
    return slack_d_[static_cast<size_t>(x)];
  }

  void update_slack(int u, int x, std::int64_t delta);
  void set_slack(int x);
  void push_queue(int x);
  void set_state(int x, int b);
  // flower_from_(b, y) = member for every real node y inside x.
  void set_flower_from(int b, int x, int member);
  int blossom_rotation(int b, int xr);
  void set_match(int u, int v);
  void augment(int u, int v);
  int get_lca(int u, int v);
  void add_blossom(int u, int lca, int v);
  void expand_blossom(int b);
  bool on_found_edge(const Edge& e);
  bool matching_round();

  int n_ = 0;       // real nodes
  int n_x_ = 0;     // nodes including active blossoms
  int stride_ = 0;  // 2n + 1
  std::vector<Edge> edges_;
  // Real-node weights, stride n + 1: the S-vertex scan reads these instead
  // of the 16-byte edge records. Real-real edge records stay canonical
  // (Edge{u, v, w}); add_blossom only writes rows and columns above n.
  std::vector<std::int64_t> weights_;
  std::vector<std::int64_t> lab_;  // dual variables
  std::vector<int> match_, slack_, st_, pa_, s_, vis_;
  // slack_d_[x] == edge_delta(g_(slack_[x], x)) for every top-level x that
  // is free or an S-node with slack_[x] != 0. A slack source is an
  // S-vertex, so a dual step of d shifts it by -d for a free x and by -2d
  // for an S x. T-nodes are not kept exact: their slack is never acted on.
  std::vector<std::int64_t> slack_d_;
  std::vector<int> best_;  // add_blossom: flower member chosen per column
  std::vector<int> flower_from_storage_;
  std::vector<std::vector<int>> flower_;
  // FIFO of S-vertices to scan: pushed at the back, read at queue_head_.
  std::vector<int> queue_;
  std::size_t queue_head_ = 0;
  int lca_stamp_ = 0;
};

// The calling thread's matcher workspace.
BlossomMatcher& thread_matcher();

}  // namespace detail

template <class Weight>
Matching max_weight_matching(int n, const Weight& weight) {
  Matching result;
  result.mate.assign(static_cast<size_t>(n), -1);
  if (n < 2) return result;
  detail::BlossomMatcher& matcher = detail::thread_matcher();
  matcher.reset(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const double w = weight(u, v);
      if (w > 0) matcher.set_weight(u, v, quantize_weight(w));
    }
  }
  std::int64_t unused = 0;
  result.mate = matcher.solve(unused);
  for (int u = 0; u < n; ++u) {
    const int v = result.mate[static_cast<size_t>(u)];
    if (v > u) {
      result.weight += weight(u, v);
      ++result.pairs;
    }
  }
  return result;
}

}  // namespace muri
