// Muri — the paper's scheduler (§4, Algorithm 1).
//
// Each scheduling round:
//  1. Priority-sort the queue: SRSF (remaining × GPUs) when durations are
//     known (Muri-S), 2D-LAS (attained GPU-time) when unknown (Muri-L).
//  2. If everything fits exclusively, do not group (interleaving only pays
//     when the cluster is contended).
//  3. Otherwise take the head of the queue — enough jobs to fill the
//     cluster with max-size groups — bucket them by GPU demand (§4.2
//     "Handling multi-GPU jobs"), and inside each bucket run the
//     multi-round grouping: log₂k rounds of maximum-weight matching
//     over interleaving-efficiency edge weights, merging matched pairs
//     into super-nodes between rounds. A round with few profile classes
//     matches class counts (matching/quotient), the rest run Blossom.
//  4. Emit interleaved groups (with the best — or, for the Fig. 11
//     ablation, worst — stage ordering) ordered by priority, then by
//     descending GPU demand for placement (§5).
#pragma once

#include <cstdint>
#include <vector>

#include "interleave/efficiency.h"
#include "scheduler/scheduler.h"

namespace muri::obs {
class DecisionLog;
class MetricsRegistry;
class Tracer;
}  // namespace muri::obs

namespace muri {

struct GroupingCapture;

struct MuriOptions {
  // Maximum jobs per interleaving group (Fig. 12 varies this 2..4).
  int max_group_size = 4;
  // Stage-ordering selection (Fig. 11 ablation uses kWorst).
  OrderingPolicy ordering = OrderingPolicy::kBest;
  // When false, replaces Blossom matching with the paper's "Muri w/o
  // Blossom" ablation: pack same-bucket jobs consecutively in priority
  // order.
  bool use_blossom = true;
  // Muri-S (true) vs Muri-L (false).
  bool durations_known = false;
  // Only group jobs with identical GPU demand (§4.2). Disabling this is an
  // extension ablation; mixed groups pay a cascade penalty in execution.
  bool bucket_by_gpu = true;
  // Hard cap on grouping candidates per round, bounding the Blossom O(n³)
  // cost; 0 means "max_group_size × total GPUs" (Algorithm 1's "fully
  // utilize the cluster"), clamped to 192 so a deep backlog cannot make a
  // scheduling round quadratically slower.
  int candidate_cap = 0;
  // Observability hooks (src/obs), both optional and read-only with
  // respect to the plan: `trace` receives a per-round span on the
  // scheduler track, `metrics` absorbs the GroupingStats counters
  // (muri_sched_* series) plus a round wall-time summary. Null pointers
  // (the default) skip all instrumentation — the plan and every tier-1
  // output are bit-identical either way.
  obs::Tracer* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Decision provenance sink (src/obs/provenance): per-round priority
  // scores, candidate buckets, every γ edge offered to Blossom, and each
  // group's admission verdict. Same contract as the other two hooks —
  // null (the default) is a zero-cost no-op and attaching a log leaves
  // the plan bit-identical. Forwarded to Scheduler::set_decision_log();
  // a log attached later via that setter works identically.
  obs::DecisionLog* decisions = nullptr;
};

// Counters for one scheduling round (or one multi_round_grouping call):
// where the time went and how much γ work the matching graphs took. A
// round runs on one thread, so its four timers cover disjoint stretches of
// it and their sum never exceeds the round's wall time.
struct GroupingStats {
  // Wall seconds spent building matching-graph edge weights, over every
  // bucket of the round.
  double graph_build_seconds = 0;
  // Wall seconds solving the stage matchings (the class-count quotient,
  // or Blossom with its graph fill), over every bucket of the round.
  double matching_seconds = 0;
  // Wall seconds in the round's remaining phases (the live SLO plane's
  // round breakdown): the initial priority sort, and group
  // assembly/admission/placement ordering after grouping. Like the two
  // timers above these measure the round that just ran and never appear
  // in byte-compared outputs.
  double priority_sort_seconds = 0;
  double admission_seconds = 0;
  // γ work over the admissible node pairs of the matching graphs.
  // cache_hits counts pairs priced from the grouping call's class table
  // (an ordered pair of member-class sequences priced earlier in the same
  // call). cache_misses counts the rest (muri_sched_gamma_evals_total):
  // pairs whose γ was evaluated. Their sum is every admissible pair.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  // Grouping stages matched: certified class-count solves plus Blossom
  // runs.
  std::int64_t matchings_run = 0;
  // Stages matched by a certified class-count solve (matching/quotient),
  // and stages where that solve ran but was not certified, so Blossom
  // matched them. The other matchings_run stages were not class-structured
  // within the quotient's bounds.
  std::int64_t quotient_solves = 0;
  std::int64_t quotient_fallbacks = 0;
  // Grouping rounds that ended without a productive matching (no positive
  // γ edges, or Blossom matched zero pairs) and fell back to emitting the
  // current nodes as final groups.
  std::int64_t matching_fallbacks = 0;
  void accumulate(const GroupingStats& other) {
    graph_build_seconds += other.graph_build_seconds;
    matching_seconds += other.matching_seconds;
    priority_sort_seconds += other.priority_sort_seconds;
    admission_seconds += other.admission_seconds;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    matchings_run += other.matchings_run;
    quotient_solves += other.quotient_solves;
    quotient_fallbacks += other.quotient_fallbacks;
    matching_fallbacks += other.matching_fallbacks;
  }
};

class MuriScheduler final : public Scheduler {
 public:
  explicit MuriScheduler(MuriOptions options = {});

  std::string name() const override;
  bool needs_durations() const override { return options_.durations_known; }

  std::vector<PlannedGroup> schedule(const std::vector<JobView>& queue,
                                     const SchedulerContext& ctx) override;

  const MuriOptions& options() const noexcept { return options_; }

  // Cumulative number of stage matchings (scalability accounting).
  std::int64_t matchings_run() const noexcept {
    return cumulative_stats_.matchings_run;
  }

  // Timing / cache counters of the most recent schedule() call and the
  // running totals since construction (for the scalability benches).
  const GroupingStats& last_round_stats() const noexcept {
    return last_round_stats_;
  }
  const GroupingStats& cumulative_stats() const noexcept {
    return cumulative_stats_;
  }

 private:
  double priority_of(const JobView& v) const;

  MuriOptions options_;
  GroupingStats last_round_stats_;
  GroupingStats cumulative_stats_;
  // Round ids for the trace round span and the decision log; kept in
  // lockstep with DecisionLog::begin_round() so a log attached from
  // construction sees the same ids a log-free run would stamp on traces.
  std::int64_t round_seq_ = 0;
};

// The multi-round grouping core (Algorithm 1), exposed for unit tests and
// the scalability bench. Partitions `profiles` (jobs of one bucket) into
// groups of at most `max_group_size`, running ceil(log2(max_group_size))
// rounds of maximum-weight matching with interleaving-efficiency weights.
// Returns groups as index lists into `profiles`. Runs on the calling
// thread, and nothing a call leaves behind (only per-thread buffers)
// affects the next one, so independent calls may run concurrently.
// Within a call, γ is priced once per ordered pair of member-class
// sequences, classes being bitwise-equal profiles; every later pair with
// the same key reuses that value. Each stage is matched by
// match_typed_graph (matching/quotient): a certified class-count solve
// when the stage has few classes, Blossom otherwise; both reach the
// maximum integer weight, and which job of a class meets which job of
// another follows the quotient's fixed priority-order rule.
// `stats` (may be null) receives timing and work counters.
// `capture` (may be null) receives one MatchingRoundRecord per matching
// stage — nodes, positive edges, merges, survivors — copied out of the
// stage graph after the fact; populating it never changes the result
// (see matching/capture.h).
std::vector<std::vector<int>> multi_round_grouping(
    const std::vector<ResourceVector>& profiles, int max_group_size,
    GroupingStats* stats = nullptr, GroupingCapture* capture = nullptr);

}  // namespace muri
