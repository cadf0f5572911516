#include "scheduler/muri.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "matching/capture.h"
#include "matching/quotient.h"
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
  m.counter("muri_sched_matchings_total",
            "Grouping stages matched, by the class quotient or Blossom")
      .inc(static_cast<double>(round.matchings_run));
  m.counter("muri_sched_quotient_solves_total",
            "Grouping stages matched by a certified class-count solve")
      .inc(static_cast<double>(round.quotient_solves));
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

// The "Muri w/o Blossom" ablation (§6.4): groups of up to max_group_size
// consecutive jobs of a bucket, in descending priority order.
std::vector<std::vector<int>> pack_in_order(int n, int max_group_size) {
  std::vector<std::vector<int>> groups;
  std::vector<int> chunk;
  for (int i = 0; i < n; ++i) {
    chunk.push_back(i);
    if (static_cast<int>(chunk.size()) == max_group_size) {
      groups.push_back(chunk);
      chunk.clear();
    }
  }
  if (!chunk.empty()) groups.push_back(chunk);
  return groups;
}

// Serializes one bucket's candidate set and matching rounds into the
// decision log, translating bucket-local member indices to job ids
// (`jobs[local]`; edge/matched endpoints stay node indices into the
// sibling "nodes" array, per the record catalog).
void log_bucket(obs::DecisionLog& dlog, int gpus,
                const std::vector<std::int64_t>& jobs,
                const GroupingCapture& capture) {
  dlog.entry("bucket").integer("gpus", gpus).ids("jobs", jobs);
  for (const MatchingRoundRecord& mr : capture.rounds) {
    std::string nodes_json = "[";
    for (size_t ni = 0; ni < mr.nodes.size(); ++ni) {
      if (ni != 0) nodes_json += ',';
      nodes_json += '[';
      for (size_t mi = 0; mi < mr.nodes[ni].size(); ++mi) {
        if (mi != 0) nodes_json += ',';
        obs::append_json_double(
            nodes_json, static_cast<double>(
                            jobs[static_cast<size_t>(mr.nodes[ni][mi])]));
      }
      nodes_json += ']';
    }
    nodes_json += ']';
    std::string edges_json = "[";
    for (size_t ei = 0; ei < mr.edges.size(); ++ei) {
      if (ei != 0) edges_json += ',';
      edges_json += '[';
      obs::append_json_double(edges_json, static_cast<double>(mr.edges[ei].u));
      edges_json += ',';
      obs::append_json_double(edges_json, static_cast<double>(mr.edges[ei].v));
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
    dlog.entry("match_round")
        .integer("gpus", gpus)
        .integer("stage", mr.stage)
        .raw("nodes", nodes_json)
        .raw("edges", edges_json)
        .raw("matched", matched_json)
        .ints("unmatched", mr.unmatched)
        .raw("fallback", mr.fallback ? "true" : "false");
  }
}

}  // namespace

std::vector<std::vector<int>> multi_round_grouping(
    const std::vector<ResourceVector>& profiles, int max_group_size,
    GroupingStats* stats, GroupingCapture* capture) {
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
  // This stage's graph over its signature ids (dense ids `table.local`),
  // and per id: member count and first and last node.
  TypedGraph stage;
  std::vector<int> size_of;
  std::vector<int> first_node;
  std::vector<int> last_node;
  std::vector<std::int64_t> nodes_of_size;
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
    // Each ordered signature key is priced once (see Signatures), from the
    // first node of each signature, and only if some node pair u < v
    // reads it: the stage graph is that table, not an n × n fill.
    const auto t_graph = Clock::now();
    next_stage_table(nodes, signatures.count(), table, spare);
    std::swap(table, spare);
    const int types = table.size;
    stage.types = types;
    stage.type_of.resize(static_cast<size_t>(n));
    size_of.assign(static_cast<size_t>(types), 0);
    first_node.assign(static_cast<size_t>(types), -1);
    last_node.assign(static_cast<size_t>(types), -1);
    nodes_of_size.assign(static_cast<size_t>(max_group_size) + 1, 0);
    for (int v = 0; v < n; ++v) {
      const GroupNode& node = nodes[static_cast<size_t>(v)];
      const int s = table.local[static_cast<size_t>(node.sig)];
      stage.type_of[static_cast<size_t>(v)] = s;
      if (first_node[static_cast<size_t>(s)] < 0) {
        first_node[static_cast<size_t>(s)] = v;
        size_of[static_cast<size_t>(s)] =
            static_cast<int>(node.members.size());
      }
      last_node[static_cast<size_t>(s)] = v;
      ++nodes_of_size[node.members.size()];
    }
    // Admissible node pairs (combined size within the limit): each is a
    // table hit but the one pair per cell that priced it.
    std::int64_t admissible = 0;
    for (int k = 1; k <= max_group_size; ++k) {
      const std::int64_t nk = nodes_of_size[static_cast<size_t>(k)];
      for (int l = k; k + l <= max_group_size; ++l) {
        admissible += k == l ? nk * (nk - 1) / 2
                             : nk * nodes_of_size[static_cast<size_t>(l)];
      }
    }
    std::int64_t priced = 0;
    stage.weight.assign(static_cast<size_t>(types) * types, 0.0);
    bool any_edge = false;
    for (int t = 0; t < types; ++t) {
      for (int s = 0; s < types; ++s) {
        // Cell (t, s) is read iff a node of t precedes a node of s.
        if (first_node[static_cast<size_t>(t)] >=
                last_node[static_cast<size_t>(s)] ||
            size_of[static_cast<size_t>(t)] +
                    size_of[static_cast<size_t>(s)] >
                max_group_size) {
          continue;
        }
        const size_t key = static_cast<size_t>(t) * types + s;
        double& cell = table.cells[key];
        if (std::isnan(cell)) {
          const GroupNode& a =
              nodes[static_cast<size_t>(first_node[static_cast<size_t>(t)])];
          const GroupNode& b =
              nodes[static_cast<size_t>(first_node[static_cast<size_t>(s)])];
          double gamma;
          if (a.members.size() + b.members.size() == 2) {
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
          ++priced;
        }
        stage.weight[key] = cell;
        any_edge = any_edge || cell > 0;
      }
    }
    if (stats != nullptr) {
      stats->cache_misses += priced;
      stats->cache_hits += admissible - priced;
    }
    if (stats != nullptr) stats->graph_build_seconds += seconds_since(t_graph);

    // Provenance snapshot of this round's decision inputs, the stage
    // graph's edges expanded — never consulted by the algorithm, so
    // capture on/off yields bit-identical groupings.
    MatchingRoundRecord* rec = nullptr;
    if (capture != nullptr) {
      rec = &capture->rounds.emplace_back();
      rec->stage = round;
      rec->nodes.reserve(static_cast<size_t>(n));
      for (const GroupNode& node : nodes) rec->nodes.push_back(node.members);
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
          const double w = stage.pair_weight(u, v);
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
    StageSolver solver = StageSolver::kDense;
    const Matching matching = match_typed_graph(stage, &solver);
    if (stats != nullptr) {
      stats->matching_seconds += seconds_since(t_match);
      ++stats->matchings_run;
      if (solver == StageSolver::kQuotient) ++stats->quotient_solves;
      if (solver == StageSolver::kFallback) ++stats->quotient_fallbacks;
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

MuriScheduler::MuriScheduler(MuriOptions options) : options_(options) {
  assert(options_.max_group_size >= 1 &&
         options_.max_group_size <= kNumResources);
  set_decision_log(options_.decisions);
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
      // Args carry only facts of the plan (queue, groups, round id), never
      // work counters or timings, so the trace stays byte-stable.
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
    dlog->entry("round_start")
        .str("scheduler", name())
        .str("policy", options_.durations_known ? "SRSF" : "2D-LAS")
        .integer("queue", static_cast<std::int64_t>(queue.size()))
        .integer("capacity", ctx.capacity());
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

  // Group the buckets one after another in ascending-demand order (the
  // map's order), on this thread. Each bucket adds its grouping counters
  // to last_round_stats_, writes its records to the decision log, and has
  // its groups assembled before the next bucket starts. A bucket of one
  // job groups to {{0}} without touching stats or capture.
  struct Planned {
    PlannedGroup group;
    double priority;
  };
  std::vector<Planned> planned;
  std::vector<ResourceVector> profiles;
  // Interleave plans priced this round, keyed by the raw bytes of the
  // ordered member profiles: groups with the same member sequence (twins
  // of one profile class sequence, common under the profiler's
  // per-model cache) reuse slots, offsets, period and γ bit for bit.
  std::map<std::string, InterleavePlan> plans;
  std::string plan_key;
  // Matching rounds of the current bucket for the decision log; left empty
  // when no log is attached.
  GroupingCapture capture;
  for (const auto& [gpus, indices] : buckets) {
    profiles.clear();
    for (int idx : indices) {
      profiles.push_back(
          candidates[static_cast<size_t>(idx)].measured.stage_time);
    }
    capture.rounds.clear();
    const std::vector<std::vector<int>> groups =
        options_.use_blossom
            ? multi_round_grouping(profiles, options_.max_group_size,
                                   &last_round_stats_,
                                   dlog != nullptr ? &capture : nullptr)
            : pack_in_order(static_cast<int>(profiles.size()),
                            options_.max_group_size);
    if (dlog != nullptr) {
      std::vector<std::int64_t> jobs;
      jobs.reserve(indices.size());
      for (int idx : indices) {
        jobs.push_back(candidates[static_cast<size_t>(idx)].id);
      }
      log_bucket(*dlog, gpus, jobs, capture);
    }

    // Phase timer, with the admission block below: group assembly,
    // priority admission, and placement ordering.
    const auto t_assembly = Clock::now();
    for (const auto& group : groups) {
      PlannedGroup g;
      double best_priority = std::numeric_limits<double>::infinity();
      int max_gpus = 0;
      std::vector<ResourceVector> member_profiles;
      plan_key.clear();
      for (int local : group) {
        const JobView& v =
            candidates[static_cast<size_t>(indices[static_cast<size_t>(local)])];
        g.members.push_back(v.id);
        member_profiles.push_back(v.measured.stage_time);
        plan_key.append(
            reinterpret_cast<const char*>(v.measured.stage_time.data()),
            sizeof(ResourceVector));
        best_priority = std::min(best_priority, priority_of(v));
        max_gpus = std::max(max_gpus, v.num_gpus);
      }
      g.num_gpus = max_gpus;
      if (g.members.size() == 1) {
        g.mode = GroupMode::kExclusive;
      } else {
        g.mode = GroupMode::kInterleaved;
        auto it = plans.find(plan_key);
        if (it == plans.end()) {
          it = plans
                   .emplace(plan_key,
                            plan_interleave(member_profiles, options_.ordering))
                   .first;
        }
        const InterleavePlan& plan = it->second;
        g.slots = plan.slots;
        g.offsets = plan.offsets;
        g.planned_period = plan.period;
        g.gamma = plan.efficiency;
        ++groups_formed;
      }
      planned.push_back({std::move(g), best_priority});
    }
    last_round_stats_.admission_seconds += seconds_since(t_assembly);
  }

  const auto t_admission = Clock::now();
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
          .num("gamma", p.group.gamma)
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
  last_round_stats_.admission_seconds += seconds_since(t_admission);
  cumulative_stats_.accumulate(last_round_stats_);

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
