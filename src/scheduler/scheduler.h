// Scheduler interface shared by Muri and all baselines.
//
// The simulator invokes the scheduler on scheduling rounds (fixed interval,
// batched arrivals/completions — §5). The scheduler sees the queue through
// JobView (profiler-measured profiles, attained service, remaining time if
// durations are known) and returns an ordered list of PlannedGroups. The
// simulator places groups *in plan order* (skipping groups that do not
// fit), so each scheduler encodes its own placement priority; preemptive
// schedulers use the §5 rule — descending GPU demand — via
// sort_groups_for_placement().
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/types.h"
#include "job/model.h"

namespace muri::obs {
class DecisionLog;
}  // namespace muri::obs

namespace muri {

// What a scheduler is allowed to know about a queued or running job.
struct JobView {
  JobId id = kInvalidJob;
  int num_gpus = 1;
  Time submit_time = 0;
  // Profiler output — possibly noisy, never the ground truth.
  IterationProfile measured;
  // Attained GPU-time (wall seconds running × GPUs) — the 2D-LAS signal.
  double attained_service = 0;
  // Wall time since submission.
  Duration age = 0;
  // Solo remaining runtime estimate; only meaningful when the simulation
  // declares durations known (SRTF/SRSF/Muri-S read it).
  Duration remaining_time = 0;
  bool running = false;
};

struct SchedulerContext {
  Time now = 0;
  int total_gpus = 0;
  int gpus_per_machine = 0;
  bool durations_known = false;
  // GPUs on machines currently in the allocatable pool (worker monitor:
  // failed and blacklisted machines excluded). -1 means "no fault domain
  // information" and falls back to total_gpus.
  int available_gpus = -1;

  // The GPU capacity a scheduler may plan against this round.
  int capacity() const noexcept {
    return available_gpus >= 0 ? available_gpus : total_gpus;
  }
};

// How the members of a group share their GPU set.
enum class GroupMode : std::uint8_t {
  // Single job, exclusive resources.
  kExclusive,
  // Muri-style time interleaving with stage barriers; `offsets` carries the
  // rotation offsets chosen by the scheduler.
  kInterleaved,
  // Co-located without stage coordination (AntMan-style GPU sharing);
  // member stages contend freely.
  kUncoordinated,
};

struct PlannedGroup {
  std::vector<JobId> members;
  int num_gpus = 1;  // GPUs allocated to the group as a whole
  GroupMode mode = GroupMode::kExclusive;
  // Rotation schedule for kInterleaved, from plan_interleave on the
  // *measured* profiles: the slot axis and per-member offsets. Empty
  // otherwise. The simulator executes this schedule against the
  // ground-truth profiles (and falls back to a fresh best-order plan if
  // the schedule is malformed).
  std::vector<Resource> slots;
  std::vector<int> offsets;
  // The rotation period the scheduler *planned* for (from measured
  // profiles). The executor paces barriers by this plan, so the gap
  // between planned and true stage durations turns into idle time; the
  // simulator charges a mis-planning penalty proportional to the relative
  // gap (this is how profiling noise degrades performance, Fig. 14).
  Duration planned_period = 0;
  // The interleaving efficiency the scheduler priced the group at: the
  // plan's γ for a Muri interleaved group, 1 otherwise (a solo job's γ;
  // the baselines do not price sharing). The engine records it on the
  // group's placement.
  double gamma = 1.0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  // True if the policy reads JobView::remaining_time.
  virtual bool needs_durations() const { return false; }

  // Computes this round's plan. Jobs absent from the returned groups stay
  // (or become) pending. Called only on rounds where the queue changed.
  virtual std::vector<PlannedGroup> schedule(const std::vector<JobView>& queue,
                                             const SchedulerContext& ctx) = 0;

  // Decision provenance sink (src/obs/provenance). Null — the default —
  // disables logging entirely; attaching a log never changes the plan.
  // Schedulers call decisions()->begin_round() per schedule() invocation
  // and record round_start/priority/group/... entries against it.
  void set_decision_log(obs::DecisionLog* log) noexcept { decisions_ = log; }
  obs::DecisionLog* decision_log() const noexcept { return decisions_; }

  // Jobs the most recent schedule() explicitly deferred (Muri's beyond-
  // the-candidate-prefix set), ascending. Observability input for
  // wait-state attribution; baselines that never defer leave it empty.
  const std::vector<JobId>& last_deferred() const noexcept {
    return last_deferred_;
  }

 protected:
  void set_last_deferred(std::vector<JobId> jobs) noexcept {
    last_deferred_ = std::move(jobs);
  }

 private:
  obs::DecisionLog* decisions_ = nullptr;
  std::vector<JobId> last_deferred_;
};

// Stable-sorts groups by descending GPU demand — the §5 placement order
// that packs big jobs first and lets small ones backfill.
void sort_groups_for_placement(std::vector<PlannedGroup>& groups);

// Stable-sorts views ascending by `priority(view)` (lower value runs
// first), breaking ties by submit time then id for determinism.
template <typename PriorityFn>
std::vector<JobView> sorted_by_priority(std::vector<JobView> queue,
                                        PriorityFn&& priority) {
  std::stable_sort(queue.begin(), queue.end(),
                   [&](const JobView& a, const JobView& b) {
                     const double pa = priority(a);
                     const double pb = priority(b);
                     if (pa != pb) return pa < pb;
                     if (a.submit_time != b.submit_time) {
                       return a.submit_time < b.submit_time;
                     }
                     return a.id < b.id;
                   });
  return queue;
}

}  // namespace muri
