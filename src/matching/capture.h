// Matching-round capture hook — the raw material of decision provenance.
//
// The multi-round grouping (Algorithm 1) makes its choices inside the
// matching layer: which candidate pairs were offered to the matcher at
// what γ edge weight, which were matched and merged into super-nodes, and
// which survived a round unmatched. A `GroupingCapture` passed down from
// the scheduler records exactly that, one `MatchingRoundRecord` per
// matching round (class-count quotient or Blossom alike), so the provenance log (src/obs/provenance) can later answer "why
// did job J end up grouped with K and not L".
//
// Capture is plan-neutral by construction: records are copied out of the
// already-built stage graph and matching result after the fact, never
// consulted by the algorithm, so a null capture pointer and a populated
// one yield bit-identical groupings. Node member lists and edges are
// indices local to the captured instance (the caller maps them to job
// ids); edges are stored with u < v in row-major order, which makes the
// capture a pure function of the (deterministic) graph contents.
#pragma once

#include <cstdint>
#include <vector>

namespace muri {

// One matching round of one multi_round_grouping call.
struct MatchingRoundRecord {
  // A candidate edge offered to the matcher: nodes[u] ∪ nodes[v] with the
  // interleaving-efficiency weight γ(u ∪ v) > 0.
  struct Edge {
    int u = 0;
    int v = 0;
    double gamma = 0;
  };

  // 0-based matching round within the grouping call (log₂k rounds total).
  int stage = 0;
  // Member-index sets of each node entering this round (singletons in
  // round 0, merged super-nodes afterwards). Indices address the profile
  // array the grouping was called with.
  std::vector<std::vector<int>> nodes;
  // All positive-weight edges fed into the matching graph, u < v.
  std::vector<Edge> edges;
  // Matched node pairs (u < v) that merged into super-nodes.
  std::vector<std::pair<int, int>> matched;
  // Nodes that survived this round unmatched.
  std::vector<int> unmatched;
  // True when the round ended without a productive matching (no positive
  // edges, or Blossom matched zero pairs) and grouping fell back to
  // emitting the current nodes as final groups.
  bool fallback = false;
};

// Every matching round of one multi_round_grouping call, in order.
struct GroupingCapture {
  std::vector<MatchingRoundRecord> rounds;
};

}  // namespace muri
