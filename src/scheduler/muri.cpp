#include "scheduler/muri.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "common/threadpool.h"
#include "matching/blossom.h"
#include "matching/capture.h"
#include "matching/incremental/incremental.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace muri {

namespace {

struct GroupNode {
  std::vector<int> members;  // indices into the bucket's profile array
  int sig = 0;               // Signatures id of the members' class sequence
};

// γ of a node pair depends only on the ordered profiles of
// a.members ++ b.members. So profiles fall into classes by exact bit
// equality, and each node carries a signature that fixes its ordered
// member-class sequence: a singleton's signature is its class, and a
// merged node's interns the ordered pair of its halves' signatures. Two
// node pairs with the same ordered (signature, signature) key price the
// same floating-point code on the same inputs. (Equal sequences reached
// through different splits get different signatures; that costs a table
// miss, never a wrong value, and needs a third stage: groups above 4.)
class Signatures {
 public:
  // Classes of `profiles` in first-appearance order, one per profile.
  std::vector<int> classify(const std::vector<ResourceVector>& profiles) {
    using Bits = std::array<std::uint64_t, kNumResources>;
    static_assert(sizeof(Bits) == sizeof(ResourceVector));
    std::map<Bits, int> ids;
    std::vector<int> class_of;
    class_of.reserve(profiles.size());
    for (const ResourceVector& p : profiles) {
      Bits bits;
      std::memcpy(bits.data(), p.data(), sizeof(bits));
      class_of.push_back(ids.try_emplace(bits, classes_).first->second);
      if (class_of.back() == classes_) ++classes_;
    }
    return class_of;
  }

  // Signature of the node merged from `a` followed by `b`.
  int concat(int a, int b) {
    return merged_.try_emplace({a, b}, count()).first->second;
  }

  int count() const { return classes_ + static_cast<int>(merged_.size()); }

 private:
  int classes_ = 0;
  std::map<std::pair<int, int>, int> merged_;  // (a, b) -> id >= classes_
};

// The edge weights of one grouping stage, one cell per ordered pair of
// the stage's distinct signatures: the weight every node pair with that
// key gets (γ when γ > 0, else 0, "no edge"), or kUnpriced.
struct StageTable {
  static constexpr double kUnpriced =
      std::numeric_limits<double>::quiet_NaN();
  std::vector<int> local;     // signature -> dense id this stage, or -1
  int size = 0;
  std::vector<double> cells;  // size × size
};

// Refills `next` for the stage whose nodes are `nodes` and carries over
// the cells of `prev` whose two signatures are alive in both stages, so
// each key is priced once per call. Reuses the buffers `next` holds.
void next_stage_table(const std::vector<GroupNode>& nodes, int signatures,
                      const StageTable& prev, StageTable& next) {
  next.local.assign(static_cast<size_t>(signatures), -1);
  next.size = 0;
  for (const GroupNode& node : nodes) {
    int& id = next.local[static_cast<size_t>(node.sig)];
    if (id < 0) id = next.size++;
  }
  next.cells.assign(static_cast<size_t>(next.size) * next.size,
                    StageTable::kUnpriced);
  // (next id, prev id) of the signatures alive in both stages.
  std::vector<std::pair<int, int>> carried;
  for (size_t sig = 0; sig < prev.local.size(); ++sig) {
    if (prev.local[sig] >= 0 && next.local[sig] >= 0) {
      carried.emplace_back(next.local[sig], prev.local[sig]);
    }
  }
  for (const auto& [i, pi] : carried) {
    for (const auto& [j, pj] : carried) {
      next.cells[static_cast<size_t>(i) * next.size + j] =
          prev.cells[static_cast<size_t>(pi) * prev.size + pj];
    }
  }
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Folds one round's GroupingStats into the registry. Counters are bumped
// once per schedule() call in call order, the same fold order
// cumulative_stats_ uses, so the registry reproduces those doubles
// *exactly* (bit-identical sums), not merely approximately.
void export_round_metrics(obs::MetricsRegistry& m, const GroupingStats& round,
                          std::size_t queue_jobs, std::size_t plan_groups,
                          double round_wall_seconds,
                          std::int64_t groups_formed,
                          std::int64_t groups_rejected) {
  m.counter("muri_sched_rounds_total", "Scheduling rounds executed").inc();
  m.counter("muri_sched_graph_build_seconds_total",
            "Wall seconds building matching-graph edge weights")
      .inc(round.graph_build_seconds);
  m.counter("muri_sched_matching_seconds_total",
            "Wall seconds inside Blossom matching")
      .inc(round.matching_seconds);
  m.counter("muri_sched_gamma_evals_total",
            "Admissible node pairs not priced from the grouping class table")
      .inc(static_cast<double>(round.cache_misses));
  m.counter("muri_sched_matchings_total", "Blossom invocations")
      .inc(static_cast<double>(round.matchings_run));
  // Aggregate decision counters, mirroring the provenance log's verdicts
  // onto /metrics (the simulator adds preemptions-by-reason alongside).
  m.counter("muri_decision_groups_formed_total",
            "Multi-job interleaving groups emitted by grouping")
      .inc(static_cast<double>(groups_formed));
  m.counter("muri_decision_groups_rejected_total",
            "Planned groups denied admission by the round's GPU budget")
      .inc(static_cast<double>(groups_rejected));
  m.counter("muri_decision_matching_fallbacks_total",
            "Grouping rounds that ended without a productive matching")
      .inc(static_cast<double>(round.matching_fallbacks));
  // Delta-round accounting (matching/incremental). All zero in rebuild
  // mode, so exporting unconditionally keeps the registry shape stable
  // across configurations.
  m.counter("muri_sched_dirty_jobs_total",
            "Per-bucket membership changes processed by incremental rounds")
      .inc(static_cast<double>(round.dirty_jobs));
  m.counter("muri_sched_topk_rescans_total",
            "Top-k candidate buffers rebuilt by a full rescan")
      .inc(static_cast<double>(round.topk_rescans));
  m.counter("muri_sched_pair_gamma_reused_total",
            "Round-0 pairwise gamma values served from the cross-round cache")
      .inc(static_cast<double>(round.edges_reused));
  m.counter("muri_sched_pair_gamma_patched_total",
            "Round-0 pairwise gamma values recomputed (dirty edges)")
      .inc(static_cast<double>(round.edges_patched));
  m.counter("muri_sched_components_total",
            "Capped candidate-graph components offered to grouping")
      .inc(static_cast<double>(round.components_total));
  m.counter("muri_sched_components_reused_total",
            "Components folded forward from the cross-round result cache")
      .inc(static_cast<double>(round.components_reused));
  m.counter("muri_sched_components_trivial_total",
            "Single-member components served by the direct fast path")
      .inc(static_cast<double>(round.components_trivial));
  m.gauge("muri_sched_queue_jobs", "Jobs visible to the last round")
      .set(static_cast<double>(queue_jobs));
  m.gauge("muri_sched_plan_groups", "Groups emitted by the last round")
      .set(static_cast<double>(plan_groups));
  m.summary("muri_sched_round_wall_seconds",
            "End-to-end wall time of schedule()")
      .observe(round_wall_seconds);
  // Per-phase latency histograms for the live SLO plane's round
  // breakdown (/stats), one labeled series per phase.
  const auto phase = [&](const char* name, double seconds) {
    m.histogram("muri_sched_phase_seconds",
                "Wall seconds per scheduling-round phase",
                obs::kRoundPhaseBounds, {{"phase", name}})
        .observe(seconds);
  };
  phase("sort", round.priority_sort_seconds);
  phase("graph_build", round.graph_build_seconds);
  phase("matching", round.matching_seconds);
  phase("admission", round.admission_seconds);
}

}  // namespace

std::vector<std::vector<int>> multi_round_grouping(
    const std::vector<ResourceVector>& profiles, int max_group_size,
    GroupingStats* stats, GroupingCapture* capture, PairGammaHook* pair_hook) {
  assert(max_group_size >= 1);
  std::vector<GroupNode> nodes;
  nodes.reserve(profiles.size());
  for (int i = 0; i < static_cast<int>(profiles.size()); ++i) {
    nodes.push_back({{i}});
  }
  if (max_group_size == 1 || nodes.size() < 2) {
    std::vector<std::vector<int>> singletons;
    for (auto& node : nodes) singletons.push_back(std::move(node.members));
    return singletons;
  }

  const auto t_classes = Clock::now();
  Signatures signatures;
  const std::vector<int> class_of = signatures.classify(profiles);
  for (GroupNode& node : nodes) {
    node.sig = class_of[static_cast<size_t>(node.members[0])];
  }
  // Two stage tables per thread, reused across calls like the Blossom
  // workspace: allocating an n² table per call cost more than filling it.
  thread_local StageTable table, spare;
  table.local.clear();
  if (stats != nullptr) stats->graph_build_seconds += seconds_since(t_classes);

  PlanScratch scratch;
  std::vector<ResourceVector> group;
  std::vector<int> node_local;
  const int rounds = static_cast<int>(
      std::ceil(std::log2(static_cast<double>(max_group_size))));
  for (int round = 0; round < rounds; ++round) {
    const int n = static_cast<int>(nodes.size());
    if (n < 2) break;

    // Interleaving efficiency of the union of two nodes' members — the
    // edge weight of Algorithm 1. For two singletons this is the pairwise
    // γ closed form; for merged nodes it is the true γ of the group the
    // merge would create (a super-node "is" its member set, so
    // interleaving two super-nodes means interleaving all their members).
    // Each ordered signature key is priced once (see Signatures).
    const auto t_graph = Clock::now();
    next_stage_table(nodes, signatures.count(), table, spare);
    std::swap(table, spare);
    node_local.resize(static_cast<size_t>(n));
    for (int u = 0; u < n; ++u) {
      node_local[static_cast<size_t>(u)] =
          table.local[static_cast<size_t>(nodes[static_cast<size_t>(u)].sig)];
    }
    DenseGraph graph(n);
    bool any_edge = false;
    for (int u = 0; u < n; ++u) {
      const GroupNode& a = nodes[static_cast<size_t>(u)];
      const size_t row =
          static_cast<size_t>(node_local[static_cast<size_t>(u)]) * table.size;
      for (int v = u + 1; v < n; ++v) {
        const GroupNode& b = nodes[static_cast<size_t>(v)];
        const int combined =
            static_cast<int>(a.members.size() + b.members.size());
        if (combined > max_group_size) continue;
        // Round 0 offers every pair as two singletons. The cross-round
        // pair memo (matching/incremental) validates full profile bits,
        // so a hit is bit-identical to recomputation. The class table
        // serves only the pairs the memo does not.
        const bool pair = round == 0 && pair_hook != nullptr;
        double gamma = 0;
        bool from_table = false;
        if (!(pair && pair_hook->lookup(a.members[0], b.members[0], &gamma))) {
          double& cell =
              table.cells[row + static_cast<size_t>(
                                    node_local[static_cast<size_t>(v)])];
          if (!std::isnan(cell)) {
            gamma = cell;
            from_table = true;
          } else {
            if (combined == 2) {
              gamma = pairwise_efficiency(
                  profiles[static_cast<size_t>(a.members[0])],
                  profiles[static_cast<size_t>(b.members[0])]);
            } else {
              group.clear();
              for (int idx : a.members) {
                group.push_back(profiles[static_cast<size_t>(idx)]);
              }
              for (int idx : b.members) {
                group.push_back(profiles[static_cast<size_t>(idx)]);
              }
              gamma = interleave_efficiency(group, scratch);
            }
            cell = gamma > 0 ? gamma : 0.0;
          }
        }
        if (stats != nullptr) {
          ++(from_table ? stats->cache_hits : stats->cache_misses);
        }
        if (gamma > 0) {
          graph.set_weight(u, v, gamma);
          any_edge = true;
        }
        // The hook records the cell value: 0 means "computed γ is 0",
        // never "absent", because round 0 offers every pair.
        if (pair) {
          pair_hook->store(a.members[0], b.members[0], graph.weight(u, v));
        }
      }
    }
    if (stats != nullptr) stats->graph_build_seconds += seconds_since(t_graph);

    // Provenance snapshot of this round's decision inputs, copied out of
    // the assembled graph — never consulted by the algorithm, so capture
    // on/off yields bit-identical groupings.
    MatchingRoundRecord* rec = nullptr;
    if (capture != nullptr) {
      rec = &capture->rounds.emplace_back();
      rec->stage = round;
      rec->nodes.reserve(static_cast<size_t>(n));
      for (const GroupNode& node : nodes) rec->nodes.push_back(node.members);
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
          const double w = graph.weight(u, v);
          if (w > 0) rec->edges.push_back({u, v, w});
        }
      }
    }
    const auto record_fallback = [&] {
      if (stats != nullptr) ++stats->matching_fallbacks;
      if (rec == nullptr) return;
      rec->fallback = true;
      for (int u = 0; u < n; ++u) rec->unmatched.push_back(u);
    };
    if (!any_edge) {
      record_fallback();
      break;
    }

    const auto t_match = Clock::now();
    const Matching matching = max_weight_matching(graph);
    if (stats != nullptr) {
      stats->matching_seconds += seconds_since(t_match);
      ++stats->matchings_run;
    }
    if (matching.pairs == 0) {
      record_fallback();
      break;
    }
    if (rec != nullptr) {
      for (int u = 0; u < n; ++u) {
        const int v = matching.mate[static_cast<size_t>(u)];
        if (v > u) {
          rec->matched.push_back({u, v});
        } else if (v < 0) {
          rec->unmatched.push_back(u);
        }
      }
    }

    std::vector<GroupNode> next;
    next.reserve(nodes.size());
    std::vector<bool> consumed(static_cast<size_t>(n), false);
    for (int u = 0; u < n; ++u) {
      if (consumed[static_cast<size_t>(u)]) continue;
      const int v = matching.mate[static_cast<size_t>(u)];
      if (v >= 0) {
        consumed[static_cast<size_t>(u)] = true;
        consumed[static_cast<size_t>(v)] = true;
        GroupNode merged;
        merged.members = nodes[static_cast<size_t>(u)].members;
        merged.members.insert(merged.members.end(),
                              nodes[static_cast<size_t>(v)].members.begin(),
                              nodes[static_cast<size_t>(v)].members.end());
        merged.sig = signatures.concat(nodes[static_cast<size_t>(u)].sig,
                                       nodes[static_cast<size_t>(v)].sig);
        next.push_back(std::move(merged));
      } else {
        consumed[static_cast<size_t>(u)] = true;
        next.push_back(std::move(nodes[static_cast<size_t>(u)]));
      }
    }
    nodes = std::move(next);
  }

  std::vector<std::vector<int>> groups;
  groups.reserve(nodes.size());
  for (auto& node : nodes) groups.push_back(std::move(node.members));
  return groups;
}

// Cross-round incremental state: one BucketGraphState per GPU-demand
// bucket key. std::map for deterministic iteration when aging out
// buckets that stopped appearing.
struct MuriScheduler::IncrementalState {
  std::map<int, BucketGraphState> buckets;
};

// Entries (pair γs, component results, whole buckets) untouched for this
// many rounds are dropped — long enough that transient priority shuffles
// do not thrash the caches, short enough that a drained queue releases
// its memory.
constexpr std::int64_t kIncrementalMaxAge = 64;

MuriScheduler::MuriScheduler(MuriOptions options) : options_(options) {
  assert(options_.max_group_size >= 1 &&
         options_.max_group_size <= kNumResources);
  assert(options_.num_threads >= 0);
  assert(options_.top_k >= 0);
  set_decision_log(options_.decisions);
}

MuriScheduler::~MuriScheduler() = default;

ThreadPool& MuriScheduler::pool() {
  if (pool_ == nullptr) {
    int requested = options_.num_threads;
    if (requested <= 0) {
      requested = static_cast<int>(std::thread::hardware_concurrency());
    }
    // The calling thread participates in every parallel_for, so a request
    // for t-way concurrency needs t-1 workers; 0 workers runs inline.
    pool_ = std::make_unique<ThreadPool>(std::max(requested - 1, 0));
  }
  return *pool_;
}

std::string MuriScheduler::name() const {
  std::string n = options_.durations_known ? "Muri-S" : "Muri-L";
  if (options_.max_group_size != 4) {
    // Two appends, not `"-" + std::to_string(...)`: the temporary-chain
    // form trips GCC 12's -Wrestrict false positive (PR 105651) at -O2.
    n += "-";
    n += std::to_string(options_.max_group_size);
  }
  if (options_.ordering == OrderingPolicy::kWorst) n += "-worstorder";
  if (!options_.use_blossom) n += "-noblossom";
  if (!options_.bucket_by_gpu) n += "-nobucket";
  // top_k (and its component cap) change which edges Blossom sees, so
  // they are part of the scheduler's identity. `incremental` is absent
  // on purpose: it is a pure latency knob, bit-identical to the rebuild
  // at the same top_k — putting it in the name would break the
  // DecisionLog byte-equality the equivalence gate enforces.
  if (options_.top_k > 0) {
    n += "-topk";
    n += std::to_string(options_.top_k);
    if (options_.component_cap != 32) {
      n += "-cap";
      n += std::to_string(options_.component_cap);
    }
  }
  return n;
}

double MuriScheduler::priority_of(const JobView& v) const {
  // Lower value = higher priority (§4.2 "Optimizing for average JCT").
  if (options_.durations_known) {
    return v.remaining_time * static_cast<double>(v.num_gpus);  // SRSF
  }
  return v.attained_service;  // 2D-LAS (attained GPU-time)
}

std::vector<PlannedGroup> MuriScheduler::schedule(
    const std::vector<JobView>& queue, const SchedulerContext& ctx) {
  last_round_stats_ = {};
  // Round id shared by the trace round span and the decision log — the
  // Perfetto/provenance cross-link. round_seq_ and begin_round() advance
  // in lockstep, so a log attached from construction sees the very ids a
  // log-free run stamps on its traces.
  obs::DecisionLog* dlog = decision_log();
  ++round_seq_;
  const std::int64_t round_id =
      dlog != nullptr ? dlog->begin_round() : round_seq_;
  // Decision counters surfaced by finish_round (metrics + round_end).
  std::int64_t groups_formed = 0;
  std::int64_t groups_rejected = 0;
  // Observability epilogue shared by both return paths. Purely read-only:
  // the plan is computed before any of this runs, so instrumented and
  // uninstrumented rounds emit bit-identical plans.
  const bool instrumented =
      options_.metrics != nullptr || options_.trace != nullptr;
  const auto t_round = instrumented ? Clock::now() : Clock::time_point{};
  const auto finish_round = [&](const std::vector<PlannedGroup>& plan,
                                bool contended) {
    if (dlog != nullptr) {
      dlog->entry("round_end")
          .integer("groups", static_cast<std::int64_t>(plan.size()))
          .integer("admitted",
                   static_cast<std::int64_t>(plan.size()) - groups_rejected)
          .integer("rejected", groups_rejected)
          .integer("contended", contended ? 1 : 0);
    }
    if (!instrumented) return;
    const double wall_seconds = seconds_since(t_round);
    if (options_.metrics != nullptr) {
      export_round_metrics(*options_.metrics, last_round_stats_, queue.size(),
                           plan.size(), wall_seconds, groups_formed,
                           groups_rejected);
    }
    if (options_.trace != nullptr && options_.trace->enabled()) {
      obs::Tracer& tr = *options_.trace;
      tr.name_track(obs::kSchedulerTrack, "scheduler");
      // A true wall span in the steady domain; in the manual (sim-time)
      // domain a round takes zero simulated time, so it collapses to a
      // deterministic zero-duration marker at the current sim instant.
      // Args carry only mode-independent facts (queue, groups, round id):
      // work counters like cache hits differ between the rebuild and
      // incremental paths by design, and embedding them here would break
      // the trace byte-equality the equivalence gate enforces.
      const std::int64_t end_us = tr.now_micros();
      const std::int64_t dur_us =
          tr.manual_time() ? 0
                           : static_cast<std::int64_t>(wall_seconds * 1e6);
      const obs::TraceArgs args("queue", static_cast<double>(queue.size()),
                                "groups", static_cast<double>(plan.size()),
                                "round", static_cast<double>(round_id));
      tr.complete(end_us - dur_us, dur_us, "round", "sched",
                  obs::kSchedulerTrack, 0, args);
    }
  };
  // Phase timer for the live SLO plane's round breakdown. Folded into
  // cumulative_stats_ by the contended path's accumulate (the uncontended
  // fast path keeps today's semantics: cumulative counts grouping work).
  const auto t_sort = Clock::now();
  auto ordered =
      sorted_by_priority(queue, [&](const JobView& v) { return priority_of(v); });
  last_round_stats_.priority_sort_seconds = seconds_since(t_sort);
  if (dlog != nullptr) {
    {
      auto e = dlog->entry("round_start");
      e.str("scheduler", name())
          .str("policy", options_.durations_known ? "SRSF" : "2D-LAS")
          .integer("queue", static_cast<std::int64_t>(queue.size()))
          .integer("capacity", ctx.capacity());
      // Lifecycle churn since the previous round, as reported by the
      // caller (the simulator plumbs arrivals/finishes/preemptions/
      // evictions through SchedulerContext::dirty_jobs). Identical
      // between rebuild and incremental runs — it describes the *input*
      // delta, not the work done with it — so logging it keeps the
      // DecisionLog byte-equality contract intact.
      if (ctx.dirty_jobs != nullptr) {
        e.integer("dirty",
                  static_cast<std::int64_t>(ctx.dirty_jobs->size()));
      }
    }
    std::vector<std::int64_t> ids;
    std::vector<double> scores;
    ids.reserve(ordered.size());
    scores.reserve(ordered.size());
    for (const JobView& v : ordered) {
      ids.push_back(v.id);
      scores.push_back(priority_of(v));
    }
    dlog->entry("priority")
        .str("policy", options_.durations_known ? "SRSF" : "2D-LAS")
        .ids("job", ids)
        .nums("score", scores);
  }

  // Uncontended cluster: exclusive allocation beats interleaving (no
  // sharing benefit, only overhead), so fall back to plain priority
  // scheduling.
  int total_demand = 0;
  for (const JobView& v : ordered) total_demand += v.num_gpus;
  if (total_demand <= ctx.capacity() || options_.max_group_size == 1) {
    std::vector<PlannedGroup> plan;
    plan.reserve(ordered.size());
    for (const JobView& v : ordered) {
      plan.push_back({{v.id}, v.num_gpus, GroupMode::kExclusive, {}, {}, 0});
    }
    sort_groups_for_placement(plan);
    set_last_deferred({});
    finish_round(plan, /*contended=*/false);
    return plan;
  }

  // Candidate prefix: enough jobs to fill the cluster with max-size groups
  // (Algorithm 1 lines 3-7), bounded by the configured cap.
  const int gpu_budget = options_.max_group_size * ctx.capacity();
  const int cap =
      options_.candidate_cap > 0
          ? options_.candidate_cap
          : std::min(options_.max_group_size * ctx.capacity(), 192);
  std::vector<JobView> candidates;
  std::vector<JobView> rest;
  int cum_gpus = 0;
  for (const JobView& v : ordered) {
    if (cum_gpus + v.num_gpus <= gpu_budget &&
        static_cast<int>(candidates.size()) < cap) {
      candidates.push_back(v);
      cum_gpus += v.num_gpus;
    } else {
      rest.push_back(v);
    }
  }

  // Bucket by GPU demand so a distributed job never straddles groups
  // (§4.2); with bucketing disabled (extension ablation) everything lands
  // in one bucket.
  std::map<int, std::vector<int>> buckets;  // gpu demand -> candidate index
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    const int key =
        options_.bucket_by_gpu ? candidates[static_cast<size_t>(i)].num_gpus : 0;
    buckets[key].push_back(i);
  }

  // Materialize the buckets in ascending-demand order (the map's order —
  // the serial iteration order) so results are assembled identically no
  // matter how the grouping work below is scheduled across threads.
  std::vector<std::vector<int>> bucket_indices;
  std::vector<int> bucket_keys;
  bucket_indices.reserve(buckets.size());
  bucket_keys.reserve(buckets.size());
  for (auto& [key, indices] : buckets) {
    bucket_keys.push_back(key);
    bucket_indices.push_back(std::move(indices));
  }
  const size_t nb = bucket_indices.size();
  std::vector<std::vector<ResourceVector>> bucket_profiles(nb);
  for (size_t bi = 0; bi < nb; ++bi) {
    bucket_profiles[bi].reserve(bucket_indices[bi].size());
    for (int idx : bucket_indices[bi]) {
      bucket_profiles[bi].push_back(
          candidates[static_cast<size_t>(idx)].measured.stage_time);
    }
  }

  // Job ids per bucket-local index — the candidate-graph identity the
  // incremental masks and caches key on.
  std::vector<std::vector<JobId>> bucket_job_ids(nb);
  for (size_t bi = 0; bi < nb; ++bi) {
    bucket_job_ids[bi].reserve(bucket_indices[bi].size());
    for (int idx : bucket_indices[bi]) {
      bucket_job_ids[bi].push_back(candidates[static_cast<size_t>(idx)].id);
    }
  }

  // Incremental mode: pre-create every bucket's persistent state
  // serially before the parallel phase (inserting into the map from
  // concurrent bucket tasks would race), then let each bucket task
  // mutate only its own state — cache evolution is confined to the
  // bucket's deterministic serial flow, so it is identical for every
  // thread count.
  if (options_.incremental && options_.use_blossom) {
    if (incr_ == nullptr) incr_ = std::make_unique<IncrementalState>();
    for (size_t bi = 0; bi < nb; ++bi) {
      auto [it, inserted] = incr_->buckets.try_emplace(
          bucket_keys[bi], BucketGraphState(options_.top_k));
      it->second.last_seen_round = round_seq_;
      (void)inserted;
    }
    // Buckets that stopped appearing (demand class drained) age out.
    for (auto it = incr_->buckets.begin(); it != incr_->buckets.end();) {
      if (round_seq_ - it->second.last_seen_round > kIncrementalMaxAge) {
        it = incr_->buckets.erase(it);
      } else {
        ++it;
      }
    }
  }

  // One unit of grouping work: a capped component of a bucket's pruned
  // candidate graph (with top_k == 0 the whole bucket is one component,
  // which is exactly the pre-existing dense path). Results, counters,
  // captures, and deferred cache stores all land in slots owned by the
  // component so the parallel phases below stay race-free; everything is
  // folded serially in (bucket, component) order afterwards.
  struct ComponentWork {
    std::vector<int> local;              // bucket-local member indices
    std::vector<JobId> ids;              // parallel to `local`
    std::vector<ResourceVector> profs;   // parallel to `local`
    std::vector<std::vector<int>> groups;  // component-local indices
    GroupingCapture capture;
    GroupingStats stats;
    bool reused = false;
    bool trivial = false;  // single member: direct {{0}}, no cache, no hook
    std::unique_ptr<ComponentPairHook> hook;
  };

  std::vector<std::vector<std::vector<int>>> bucket_groups(nb);
  std::vector<GroupingStats> bucket_stats(nb);
  std::vector<std::vector<ComponentWork>> bucket_work(nb);
  // Per-bucket (component member list, capture) pairs for the decision
  // log, serialized after the parallel phase in (bucket, component)
  // order. Empty when no log is attached.
  std::vector<std::vector<std::pair<std::vector<int>, GroupingCapture>>>
      bucket_comp_captures(nb);
  const bool incremental = options_.incremental && options_.use_blossom;
  const auto state_of = [&](size_t bi) -> BucketGraphState* {
    return incremental ? &incr_->buckets.at(bucket_keys[bi]) : nullptr;
  };
  // The round's only parallelism: two flat fan-outs, each body writing
  // to slots its index owns. Neither body starts another parallel loop.
  ThreadPool& round_pool = pool();

  // 1. Per bucket: the component split, per-component inputs, and the
  // component result cache lookup. Each bucket touches only its own
  // incremental state.
  const auto split_bucket = [&](std::int64_t bi_raw) {
    const auto bi = static_cast<size_t>(bi_raw);
    const auto& profs = bucket_profiles[bi];
    const auto& ids = bucket_job_ids[bi];
    if (!options_.use_blossom) {
      // Ablation (§6.4): pack jobs with the same GPU requirement
      // consecutively in descending priority order.
      auto& groups = bucket_groups[bi];
      std::vector<int> chunk;
      for (int i = 0; i < static_cast<int>(profs.size()); ++i) {
        chunk.push_back(i);
        if (static_cast<int>(chunk.size()) == options_.max_group_size) {
          groups.push_back(chunk);
          chunk.clear();
        }
      }
      if (!chunk.empty()) groups.push_back(chunk);
      return;
    }
    BucketGraphState* state = state_of(bi);

    // Identical in both modes: the same mask (the maintained one is
    // provably equal to from-scratch, see matching/incremental) through
    // the same capped union-find. With top_k == 0 the whole bucket is one
    // component and no mask is built.
    std::vector<std::vector<int>> comps;
    if (options_.top_k > 0) {
      if (state != nullptr) {
        IncrementalStats istats;
        state->mask.update(ids, profs, &istats);
        bucket_stats[bi].dirty_jobs = istats.dirty_jobs;
        bucket_stats[bi].topk_rescans = istats.topk_rescans;
        comps = split_components(ids, state->mask.edges(),
                                 options_.component_cap);
      } else {
        const TopKMask mask =
            TopKMask::from_scratch(ids, profs, options_.top_k);
        comps = split_components(ids, mask.edges(), options_.component_cap);
      }
    } else {
      comps.emplace_back(static_cast<size_t>(profs.size()));
      std::iota(comps.back().begin(), comps.back().end(), 0);
    }

    std::vector<ComponentWork>& work = bucket_work[bi];
    work.resize(comps.size());
    for (size_t ci = 0; ci < comps.size(); ++ci) {
      ComponentWork& w = work[ci];
      w.local = std::move(comps[ci]);
      if (w.local.size() == 1) {
        // Trivial component: multi_round_grouping on one profile returns
        // {{0}} without touching stats, capture, or the hook, so skipping
        // the cache machinery (id/profile copies, hashing, store) changes
        // no byte of any output — it only removes allocator traffic, which
        // dominates the warm-round floor at 10k jobs.
        w.trivial = true;
        continue;
      }
      w.ids.reserve(w.local.size());
      w.profs.reserve(w.local.size());
      for (int li : w.local) {
        w.ids.push_back(ids[static_cast<size_t>(li)]);
        w.profs.push_back(profs[static_cast<size_t>(li)]);
      }
      if (state != nullptr) {
        const auto* hit = state->component_cache.lookup(
            w.ids, w.profs, /*need_capture=*/dlog != nullptr, round_seq_);
        if (hit != nullptr) {
          w.groups = hit->groups;
          if (dlog != nullptr) w.capture = hit->capture;
          w.reused = true;
        }
      }
    }
  };
  round_pool.parallel_for(0, static_cast<std::int64_t>(nb), split_bucket);

  // 2. Group every component that was not folded forward, across all
  // buckets at once. The pair caches are only read here; their stores
  // wait in each component's hook for the fold.
  std::vector<std::pair<size_t, size_t>> items;  // (bucket, component)
  for (size_t bi = 0; bi < nb; ++bi) {
    for (size_t ci = 0; ci < bucket_work[bi].size(); ++ci) {
      const ComponentWork& w = bucket_work[bi][ci];
      if (!w.reused && !w.trivial) items.emplace_back(bi, ci);
    }
  }
  const auto group_component = [&](std::int64_t item) {
    const auto [bi, ci] = items[static_cast<size_t>(item)];
    ComponentWork& w = bucket_work[bi][ci];
    if (BucketGraphState* state = state_of(bi)) {
      w.hook = std::make_unique<ComponentPairHook>(&state->pair_cache, w.ids,
                                                   &w.profs);
    }
    w.groups = multi_round_grouping(w.profs, options_.max_group_size,
                                    &w.stats,
                                    dlog != nullptr ? &w.capture : nullptr,
                                    w.hook.get());
  };
  round_pool.parallel_for(0, static_cast<std::int64_t>(items.size()),
                          group_component);

  // 3. Serial fold in (bucket, component) order: translate groups to
  // bucket-local indices, accumulate counters, commit deferred cache
  // stores. Deterministic regardless of how steps 1 and 2 were scheduled.
  for (size_t bi = 0; bi < nb; ++bi) {
    auto& groups = bucket_groups[bi];
    GroupingStats& bstats = bucket_stats[bi];
    BucketGraphState* state = state_of(bi);
    for (ComponentWork& w : bucket_work[bi]) {
      bstats.accumulate(w.stats);
      ++bstats.components_total;
      if (w.trivial) {
        ++bstats.components_trivial;
        groups.push_back(std::vector<int>{w.local[0]});
        if (dlog != nullptr) {
          bucket_comp_captures[bi].emplace_back(std::move(w.local),
                                                GroupingCapture{});
        }
        continue;
      }
      if (w.reused) ++bstats.components_reused;
      if (w.hook != nullptr) {
        bstats.edges_reused += w.hook->hits();
        bstats.edges_patched += w.hook->misses();
      }
      for (const auto& g : w.groups) {
        std::vector<int> mapped;
        mapped.reserve(g.size());
        for (int m : g) {
          mapped.push_back(w.local[static_cast<size_t>(m)]);
        }
        groups.push_back(std::move(mapped));
      }
      if (state != nullptr) {
        if (w.hook != nullptr) {
          for (const PendingPairStore& p : w.hook->pending()) {
            state->pair_cache.store(p.a, p.pa, p.b, p.pb, p.gamma,
                                    round_seq_);
          }
        }
        if (!w.reused) {
          ComponentResultCache::CachedComponent entry;
          entry.ids = w.ids;
          entry.profiles = w.profs;
          entry.groups = w.groups;
          entry.has_capture = dlog != nullptr;
          if (dlog != nullptr) entry.capture = w.capture;
          state->component_cache.store(std::move(entry), round_seq_);
        }
      }
      if (dlog != nullptr) {
        bucket_comp_captures[bi].emplace_back(std::move(w.local),
                                              std::move(w.capture));
      }
    }
    if (state != nullptr && (round_seq_ & 0xF) == 0) {
      // Aging only evicts exact entries (an evicted one just recomputes
      // to the same bits), so sweeping every 16th round is pure latency
      // saving; entries live at most kIncrementalMaxAge + 15 rounds.
      state->pair_cache.age(round_seq_, kIncrementalMaxAge);
      state->component_cache.age(round_seq_, kIncrementalMaxAge);
    }
  }
  for (const GroupingStats& s : bucket_stats) last_round_stats_.accumulate(s);
  cumulative_stats_.accumulate(last_round_stats_);

  // Serialize the per-bucket candidate sets and matching rounds into the
  // decision log, translating component-local member indices to job ids
  // (edge/matched endpoints stay node indices into the sibling "nodes"
  // array, per the record catalog). match_round records are emitted per
  // capped component with a "component" ordinal; both modes run the same
  // split, so the record stream is byte-identical between rebuild and
  // incremental rounds.
  if (dlog != nullptr) {
    const auto job_of = [&](size_t bi, int local) {
      return candidates[static_cast<size_t>(
                            bucket_indices[bi][static_cast<size_t>(local)])]
          .id;
    };
    std::string scratch;
    for (size_t bi = 0; bi < nb; ++bi) {
      std::vector<std::int64_t> jobs;
      jobs.reserve(bucket_indices[bi].size());
      for (size_t i = 0; i < bucket_indices[bi].size(); ++i) {
        jobs.push_back(job_of(bi, static_cast<int>(i)));
      }
      dlog->entry("bucket")
          .integer("gpus", bucket_keys[bi])
          .ids("jobs", jobs)
          .integer("components", static_cast<std::int64_t>(
                                     bucket_comp_captures[bi].size()));
      for (size_t ci = 0; ci < bucket_comp_captures[bi].size(); ++ci) {
        const auto& [comp_local, capture] = bucket_comp_captures[bi][ci];
        // Component-local node index -> bucket-local -> job id.
        const auto comp_job_of = [&](int local) {
          return job_of(bi, comp_local[static_cast<size_t>(local)]);
        };
        for (const MatchingRoundRecord& mr : capture.rounds) {
        std::string nodes_json = "[";
        for (size_t ni = 0; ni < mr.nodes.size(); ++ni) {
          if (ni != 0) nodes_json += ',';
          nodes_json += '[';
          for (size_t mi = 0; mi < mr.nodes[ni].size(); ++mi) {
            if (mi != 0) nodes_json += ',';
            scratch.clear();
            obs::append_json_double(
                scratch, static_cast<double>(comp_job_of(mr.nodes[ni][mi])));
            nodes_json += scratch;
          }
          nodes_json += ']';
        }
        nodes_json += ']';
        std::string edges_json = "[";
        for (size_t ei = 0; ei < mr.edges.size(); ++ei) {
          if (ei != 0) edges_json += ',';
          edges_json += '[';
          obs::append_json_double(edges_json,
                                  static_cast<double>(mr.edges[ei].u));
          edges_json += ',';
          obs::append_json_double(edges_json,
                                  static_cast<double>(mr.edges[ei].v));
          edges_json += ',';
          obs::append_json_double(edges_json, mr.edges[ei].gamma);
          edges_json += ']';
        }
        edges_json += ']';
        std::string matched_json = "[";
        for (size_t pi = 0; pi < mr.matched.size(); ++pi) {
          if (pi != 0) matched_json += ',';
          matched_json += '[';
          obs::append_json_double(matched_json,
                                  static_cast<double>(mr.matched[pi].first));
          matched_json += ',';
          obs::append_json_double(matched_json,
                                  static_cast<double>(mr.matched[pi].second));
          matched_json += ']';
        }
        matched_json += ']';
        dlog->entry("match_round")
            .integer("gpus", bucket_keys[bi])
            .integer("component", static_cast<std::int64_t>(ci))
            .integer("stage", mr.stage)
            .raw("nodes", nodes_json)
            .raw("edges", edges_json)
            .raw("matched", matched_json)
            .ints("unmatched", mr.unmatched)
            .raw("fallback", mr.fallback ? "true" : "false");
        }
      }
    }
  }

  // Phase timer: group assembly, priority admission, and placement
  // ordering. cumulative_stats_ was already folded above, so this adds to
  // both aggregates explicitly.
  const auto t_admission = Clock::now();
  struct Planned {
    PlannedGroup group;
    double priority;
    double gamma;
  };
  std::vector<Planned> planned;

  for (size_t bi = 0; bi < nb; ++bi) {
    const std::vector<int>& indices = bucket_indices[bi];
    for (const auto& group : bucket_groups[bi]) {
      PlannedGroup g;
      double best_priority = std::numeric_limits<double>::infinity();
      int max_gpus = 0;
      std::vector<ResourceVector> member_profiles;
      for (int local : group) {
        const JobView& v =
            candidates[static_cast<size_t>(indices[static_cast<size_t>(local)])];
        g.members.push_back(v.id);
        member_profiles.push_back(v.measured.stage_time);
        best_priority = std::min(best_priority, priority_of(v));
        max_gpus = std::max(max_gpus, v.num_gpus);
      }
      g.num_gpus = max_gpus;
      double gamma = 1.0;  // a solo job's interleaving efficiency
      if (g.members.size() == 1) {
        g.mode = GroupMode::kExclusive;
      } else {
        g.mode = GroupMode::kInterleaved;
        InterleavePlan plan = plan_interleave(member_profiles, options_.ordering);
        g.slots = std::move(plan.slots);
        g.offsets = std::move(plan.offsets);
        g.planned_period = plan.period;
        gamma = plan.efficiency;
        ++groups_formed;
      }
      g.predicted_gamma = gamma;
      planned.push_back({std::move(g), best_priority, gamma});
    }
  }

  std::stable_sort(planned.begin(), planned.end(),
                   [](const Planned& a, const Planned& b) {
                     return a.priority < b.priority;
                   });

  // Admission under the GPU budget in priority order (a group consumes one
  // GPU set for all its members — that is the whole point), then §5
  // placement ordering among the admitted groups. Unadmitted groups and
  // the jobs beyond the candidate prefix follow as backfill.
  std::vector<PlannedGroup> admitted;
  std::vector<PlannedGroup> overflow;
  int budget = ctx.capacity();
  for (auto& p : planned) {
    const bool fits = p.group.num_gpus <= budget;
    if (dlog != nullptr) {
      auto e = dlog->entry("group");
      e.ids("jobs", p.group.members)
          .integer("gpus", p.group.num_gpus)
          .str("mode", p.group.mode == GroupMode::kExclusive ? "exclusive"
                                                             : "interleaved")
          .num("gamma", p.gamma)
          .num("priority", p.priority)
          .raw("admitted", fits ? "true" : "false");
      if (fits) {
        e.integer("budget_left", budget - p.group.num_gpus);
      } else {
        e.str("reason", "gpu_budget");
      }
    }
    if (fits) {
      budget -= p.group.num_gpus;
      admitted.push_back(std::move(p.group));
    } else {
      ++groups_rejected;
      overflow.push_back(std::move(p.group));
    }
  }
  sort_groups_for_placement(admitted);
  last_round_stats_.admission_seconds = seconds_since(t_admission);
  cumulative_stats_.admission_seconds += last_round_stats_.admission_seconds;

  std::vector<PlannedGroup> plan = std::move(admitted);
  plan.reserve(plan.size() + overflow.size() + rest.size());
  for (auto& g : overflow) plan.push_back(std::move(g));
  for (const JobView& v : rest) {
    plan.push_back({{v.id}, v.num_gpus, GroupMode::kExclusive, {}, {}, 0});
  }
  if (dlog != nullptr && !rest.empty()) {
    std::vector<std::int64_t> deferred_ids;
    deferred_ids.reserve(rest.size());
    for (const JobView& v : rest) deferred_ids.push_back(v.id);
    dlog->entry("deferred")
        .ids("jobs", deferred_ids)
        .str("reason", "beyond_candidate_prefix");
  }
  std::vector<JobId> deferred;
  deferred.reserve(rest.size());
  for (const JobView& v : rest) deferred.push_back(v.id);
  std::sort(deferred.begin(), deferred.end());
  set_last_deferred(std::move(deferred));
  finish_round(plan, /*contended=*/true);
  return plan;
}

}  // namespace muri
