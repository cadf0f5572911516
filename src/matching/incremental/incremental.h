// Incremental candidate-graph maintenance for delta-based scheduling
// rounds (ROADMAP "Incremental scheduling rounds").
//
// A full Muri round rebuilds the γ edge graph and re-runs multi-round
// Blossom over every queued job. At 10k+ queued jobs the O(n²) candidate
// graph itself dominates the round. This module makes rounds delta-based
// while staying *bit-identical* to the full rebuild:
//
//   1. TopKMask — per-job top-k candidate neighbors ranked by
//      bottleneck-profile similarity (normalized stage-time dot product;
//      lower = more complementary = better interleaving partner, the
//      Table-1 bottleneck-class structure). Maintained exactly across
//      rounds: arrivals score against all residents once (O(n) per
//      arrival), departures are erased from every neighbor buffer
//      (O(n·K) scan, no reverse index needed), and a buffer that decays
//      below k is rebuilt by a full rescan. The buffer invariant — it
//      always holds the *exact* best-|buffer| neighbors under a strict
//      total order (score, id) — makes the first k entries equal to a
//      from-scratch top-k selection bit-for-bit, which is what the
//      property tests assert (edge set + weight equality, not just
//      matching equality).
//
//   2. split_components — capacity-capped greedy union-find over the
//      mask's edges in ascending (score, min_id, max_id) order: an edge
//      merges two clusters only if the combined size stays within
//      `component_cap`. Top-k graphs are nearly always one giant
//      connected component, so a plain connected-components split would
//      put Blossom right back at O(n³); the cap bounds every component,
//      making per-component grouping O(n·C²) total. Both the rebuild and
//      the incremental path run this same split on the same mask, so the
//      decomposition never has to be argued equivalent — it is the same
//      computation.
//
//   3. PairGammaCache — cross-round memo of round-0 pairwise γ values
//      keyed by job-id pair with the *full profile doubles* stored and
//      compared bitwise on lookup (a hash-only key could collide and
//      silently break bit-identity). Only edges touching churned jobs
//      miss; everything else is folded forward.
//
//   4. ComponentResultCache — whole-component grouping results keyed by
//      the ordered (id, profile) member list. An unchanged component's
//      groups (and its provenance capture, when a DecisionLog is
//      attached) are folded forward without re-running Blossom at all.
//
// Thread-safety contract: a bucket's TopKMask and ComponentResultCache
// lookups run in that bucket's own task; PairGammaCache lookups are
// const and run concurrently from the (bucket, component) work items,
// each through its own ComponentPairHook. All cache mutation happens in
// the round driver's serial fold (PendingPairStores, store calls) in
// deterministic (bucket, component) order. Cache evolution is therefore
// identical for every thread count, which keeps incremental rounds
// bit-identical across the num_threads axis, same as the rest of the
// scheduler.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "matching/capture.h"

namespace muri {

// Work/avoidance counters for one incremental round, folded by the
// scheduler into GroupingStats (and from there into /metrics). None of
// these appear in any byte-compared output (plans, DecisionLog, trace):
// they describe *work done*, which is exactly what differs between the
// rebuild and incremental modes.
struct IncrementalStats {
  std::int64_t dirty_jobs = 0;        // bucket membership delta processed
  std::int64_t topk_rescans = 0;      // neighbor buffers rebuilt by full rescan
  std::int64_t edges_reused = 0;      // round-0 γs served from PairGammaCache
  std::int64_t edges_patched = 0;     // round-0 γs recomputed (dirty edges)
  std::int64_t components_total = 0;  // components offered to grouping
  std::int64_t components_reused = 0; // served whole from ComponentResultCache

  void accumulate(const IncrementalStats& o) {
    dirty_jobs += o.dirty_jobs;
    topk_rescans += o.topk_rescans;
    edges_reused += o.edges_reused;
    edges_patched += o.edges_patched;
    components_total += o.components_total;
    components_reused += o.components_reused;
  }
};

// Similarity score of two jobs: dot product of their L1-normalized
// stage-time vectors. Two jobs bottlenecked on the same resource score
// near 1 (poor interleaving partners); fully complementary profiles
// score near 0. Deterministic given the profile bits — both the
// maintained mask and the from-scratch reference use this exact
// expression, so their scores are bit-identical.
double profile_similarity(const ResourceVector& a, const ResourceVector& b);

// One candidate edge of the pruned γ graph.
struct MaskEdge {
  JobId a = kInvalidJob;  // a < b
  JobId b = kInvalidJob;
  double score = 0;
};

// Per-job top-k candidate neighbors, maintained exactly across rounds.
class TopKMask {
 public:
  // Neighbor buffers hold up to k + slack entries so departures rarely
  // force a rescan; slack ≤ 0 keeps exactly k.
  explicit TopKMask(int k, int slack = 8);

  int k() const noexcept { return k_; }
  std::size_t size() const noexcept { return jobs_.size(); }

  // Reconciles the mask with the current job set: `ids[i]` has profile
  // `profiles[i]`. Jobs absent from `ids` are removed; new ids are scored
  // against every resident; a resident whose profile bits changed is
  // treated as remove + add. Returns the number of membership changes
  // processed (the per-bucket dirty count). `stats` (may be null)
  // receives rescan accounting.
  std::int64_t update(const std::vector<JobId>& ids,
                      const std::vector<ResourceVector>& profiles,
                      IncrementalStats* stats);

  // From-scratch construction over the same inputs — the reference the
  // property tests compare against, and the rebuild mode's path. Shares
  // the scoring and ordering code with the maintained path.
  static TopKMask from_scratch(const std::vector<JobId>& ids,
                               const std::vector<ResourceVector>& profiles,
                               int k, int slack = 8);

  // The undirected pruned edge set: union over jobs of their first
  // min(k, |buffer|) neighbors, deduplicated, sorted ascending by
  // (score, a, b). Deterministic given the buffers.
  std::vector<MaskEdge> edges() const;

  // The first min(k, |buffer|) neighbors of `id`, sorted by (score, id).
  // Empty if the job is unknown. Exposed for the property tests.
  std::vector<MaskEdge> neighbors(JobId id) const;

 private:
  struct Neighbor {
    double score = 0;
    JobId id = kInvalidJob;
  };
  struct Entry {
    ResourceVector profile{};
    ResourceVector unit{};  // profile / total(profile), scoring operand
    std::vector<Neighbor> buffer;  // sorted by (score, id), size ≤ cap
    std::int64_t seen = 0;  // membership-diff stamp (update() internal)
  };

  void rescan(JobId id, Entry& e);
  std::size_t cap() const noexcept {
    return static_cast<std::size_t>(k_ + (slack_ > 0 ? slack_ : 0));
  }
  // Records that `id`'s first-min(k, |buffer|) contribution may have
  // changed since the cached edge list was built. No-op while no cache
  // exists (the first edges() call builds it in full anyway).
  void touch(JobId id) {
    if (edge_cache_valid_) edge_dirty_.insert(id);
  }
  std::vector<MaskEdge> build_full_edges() const;
  // True iff `of`'s first min(k, |buffer|) neighbors include `other`;
  // writes the stored score. The score is orientation-free bitwise: both
  // endpoints' buffers hold unit_dot over the same element order, and
  // double multiplication commutes exactly.
  bool lists(JobId of, JobId other, double* score) const;

  int k_ = 0;
  int slack_ = 0;
  std::int64_t seen_stamp_ = 0;
  std::unordered_map<JobId, Entry> jobs_;

  // Sorted-edge cache: edges() pays the full O(E log E) collect-and-sort
  // only once; afterwards update() marks the jobs whose top-k
  // contribution changed and edges() splices exactly their edges — drop,
  // re-derive from the live buffers, merge — in O(E + d·k·log(d·k)).
  // Bitwise equal to the full rebuild by construction: retained edges
  // keep their sorted order, re-derived ones are sorted with the same
  // comparator, and the two ranges are disjoint in (a, b), so the merge
  // reproduces the full sort exactly.
  mutable std::vector<MaskEdge> edge_cache_;
  mutable bool edge_cache_valid_ = false;
  mutable std::unordered_set<JobId> edge_dirty_;
};

// Splits the jobs listed in `ids` (with `local[i]` their caller-side
// index, used only for deterministic output ordering) into
// capacity-capped components along `edges`: edges are taken in the given
// (already sorted) order and union two clusters only when the merged
// size stays ≤ component_cap. Returns components as lists of positions
// into `ids`/`local`, each sorted ascending by local index, the
// components themselves ordered by their minimum local index — the order
// the serial round driver would visit them, independent of threading.
// component_cap < 2 degenerates to all-singletons; an empty edge list
// yields singletons too.
std::vector<std::vector<int>> split_components(
    const std::vector<JobId>& ids, const std::vector<MaskEdge>& edges,
    int component_cap);

// Cross-round memo of round-0 pairwise γ values. Lookup is const and
// concurrency-safe; stores are buffered per call site (PendingPairStores)
// and folded serially in deterministic order by the round driver.
//
// Entries are *directional*: pairwise_efficiency(a, b) and
// pairwise_efficiency(b, a) agree only to rounding, not bitwise — the
// floating-point reduction order follows the argument order — so a hit
// must replay the exact orientation the rebuild would evaluate. Both
// orientations may be cached independently.
class PairGammaCache {
 public:
  // True if γ for exactly these two single-job profiles is known with
  // both stored profiles bitwise equal to `pa`/`pb`; writes it to *gamma.
  bool lookup(JobId a, const ResourceVector& pa, JobId b,
              const ResourceVector& pb, double* gamma) const;

  void store(JobId a, const ResourceVector& pa, JobId b,
             const ResourceVector& pb, double gamma, std::int64_t round);

  // Drops entries not touched for `max_age` rounds (both caches age by
  // the same round counter the scheduler advances per schedule() call).
  void age(std::int64_t current_round, std::int64_t max_age);

  std::size_t size() const noexcept { return map_.size(); }

 private:
  struct Key {
    JobId a = kInvalidJob;  // directional: (a, b) != (b, a)
    JobId b = kInvalidJob;
    bool operator==(const Key& o) const noexcept {
      return a == o.a && b == o.b;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = std::hash<JobId>{}(k.a);
      h ^= std::hash<JobId>{}(k.b) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
      return h;
    }
  };
  struct Value {
    ResourceVector pa{};
    ResourceVector pb{};
    double gamma = 0;
    std::int64_t last_used = 0;
  };
  std::unordered_map<Key, Value, KeyHash> map_;
};

// Deferred γ stores collected during a (possibly parallel) grouping
// phase; the driver folds them into the PairGammaCache serially.
struct PendingPairStore {
  JobId a = kInvalidJob;
  JobId b = kInvalidJob;
  ResourceVector pa{};
  ResourceVector pb{};
  double gamma = 0;
};

// Hook the grouping core consults for round-0 pairwise γ values: one
// `lookup`, then one `store` with the final γ, per admissible round-0
// pair, all from the thread running that grouping call. Implementations
// must return values bit-identical to what pairwise_efficiency would
// compute — the cache guarantees this by validating the full profile
// bits.
class PairGammaHook {
 public:
  virtual ~PairGammaHook() = default;
  virtual bool lookup(int u, int v, double* gamma) = 0;
  virtual void store(int u, int v, double gamma) = 0;
};

// PairGammaHook over one component: maps component-local indices to job
// ids + profiles, reads the shared cache, and buffers stores locally so
// concurrent components never race on the cache. Hit/miss counts are
// deterministic because the set of lookups is (every admissible round-0
// pair of the component).
class ComponentPairHook final : public PairGammaHook {
 public:
  ComponentPairHook(const PairGammaCache* cache, std::vector<JobId> ids,
                    const std::vector<ResourceVector>* profiles)
      : cache_(cache), ids_(std::move(ids)), profiles_(profiles) {}

  bool lookup(int u, int v, double* gamma) override;
  void store(int u, int v, double gamma) override;

  const std::vector<PendingPairStore>& pending() const noexcept {
    return pending_;
  }
  std::int64_t hits() const noexcept { return hits_; }
  std::int64_t misses() const noexcept { return misses_; }

 private:
  const PairGammaCache* cache_ = nullptr;
  std::vector<JobId> ids_;
  const std::vector<ResourceVector>* profiles_ = nullptr;
  std::vector<PendingPairStore> pending_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

// Whole-component grouping results folded forward across rounds. Keyed
// by the *ordered* (id, profile) member list — membership, order, and
// profile bits must all match, so a hit replays exactly the computation
// a re-run would perform.
class ComponentResultCache {
 public:
  struct CachedComponent {
    std::vector<JobId> ids;                 // component order
    std::vector<ResourceVector> profiles;   // parallel to ids
    std::vector<std::vector<int>> groups;   // component-local indices
    GroupingCapture capture;                // provenance, if captured
    bool has_capture = false;
    std::int64_t last_used = 0;
  };

  // `need_capture` mirrors "a DecisionLog is attached": an entry cached
  // without provenance must miss when provenance is now required,
  // otherwise the log would lose its match_round records.
  const CachedComponent* lookup(const std::vector<JobId>& ids,
                                const std::vector<ResourceVector>& profiles,
                                bool need_capture, std::int64_t round);

  void store(CachedComponent entry, std::int64_t round);

  void age(std::int64_t current_round, std::int64_t max_age);

  std::size_t size() const noexcept { return map_.size(); }

 private:
  struct IdsHash {
    std::size_t operator()(const std::vector<JobId>& v) const noexcept {
      std::size_t h = 0x9e3779b97f4a7c15ull ^ v.size();
      for (JobId x : v) {
        h ^= static_cast<std::size_t>(x) + 0x9e3779b97f4a7c15ull + (h << 6) +
             (h >> 2);
      }
      return h;
    }
  };
  std::unordered_map<std::vector<JobId>, CachedComponent, IdsHash> map_;
};

// Everything one GPU bucket persists across rounds in incremental mode.
struct BucketGraphState {
  TopKMask mask;
  PairGammaCache pair_cache;
  ComponentResultCache component_cache;
  std::int64_t last_seen_round = 0;

  explicit BucketGraphState(int k) : mask(k) {}
};

}  // namespace muri
