// Deterministic replay of a DecisionLog stream (DESIGN.md "Durability
// and recovery").
//
// The DecisionLog already records every scheduler decision and every
// simulator outcome; this module folds that stream back into the state a
// restarted scheduler daemon needs: which jobs have arrived, which are
// running in which groups on which machines, which finished with what
// JCT, which fault domains are down, and how far the round counter got.
// The fold is a pure function of the record sequence — replaying the
// same log twice yields byte-identical state, and a run driven from
// another thread replays to the same state as one on the main thread
// because the log itself is byte-stable.
//
// ReplayState also doubles as the snapshot payload of the WAL (wal.h):
// state_json() is byte-stable (fixed key order, sorted sets, the
// %.17g double format of the exporters), so snapshots taken at the same
// record ordinal are byte-identical across runs — which is what lets a
// resumed WAL converge byte-for-byte with an uninterrupted one.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/provenance.h"

namespace muri::recovery {

// One placed group as replay sees it: the simulator's "placement" record.
struct ReplayGroup {
  std::vector<std::int64_t> jobs;
  std::int64_t gpus = 0;
  std::string mode;
  std::vector<std::int64_t> machines;
  std::int64_t owner = 0;

  bool operator==(const ReplayGroup&) const = default;
};

// Scheduler-facing state reconstructed from a DecisionLog stream, plus
// the aggregate accounting needed to cross-check a live SimResult.
struct ReplayState {
  // Lifecycle. `runs` counts sim_start records (logs may carry several
  // runs back to back; each sim_start resets the per-run fields below).
  std::int64_t runs = 0;
  std::int64_t records = 0;    // state-tier records folded in
  std::int64_t round = 0;      // highest round id seen
  double sim_time = 0;         // latest simulated "t"
  bool run_complete = false;   // sim_end seen

  // Cluster shape (from sim_start).
  std::int64_t machines = 0;
  std::int64_t total_gpus = 0;

  // Job population.
  std::set<std::int64_t> arrived;
  std::set<std::int64_t> running;
  std::set<std::int64_t> finished;

  // Current placements: the groups of the latest placement round, minus
  // members since removed by preempt/evict/fault/finish.
  std::int64_t placement_round = -1;
  std::vector<ReplayGroup> groups;

  // Fault-domain status: machines currently down.
  std::set<std::int64_t> machines_down;

  // Aggregates mirroring SimResult (exact doubles: the log's %.17g
  // round-trips IEEE doubles bit-for-bit).
  std::vector<double> jcts;     // in finish order
  double makespan = 0;          // from sim_end
  std::int64_t finished_jobs = 0;
  std::int64_t unfinished_jobs = 0;
  std::int64_t faults = 0;
  std::int64_t restarts = 0;
  std::int64_t machine_failures = 0;
  std::int64_t evictions = 0;
  std::int64_t scheduler_invocations = 0;  // round_start records

  bool operator==(const ReplayState&) const = default;

  // Arrived but neither running nor finished, ascending.
  std::vector<std::int64_t> queued() const;
  // SimResult-compatible aggregates, computed with the same common/stats
  // calls the simulator uses (bit-exact on the same jcts).
  double avg_jct() const;
  double p99_jct() const;
};

// Folds one parsed record into `state`. Explanation-tier records
// (obs/provenance.h) are skipped without touching any counter, so a full
// log and its WAL fold to equal states. Unknown record types only bump
// the record/round counters (forward compatibility, mirroring the
// validator). False with `error` when a known type is missing the fields
// replay depends on.
bool apply_record(ReplayState& state, const obs::JsonValue& rec,
                  std::string* error = nullptr);

// Byte-stable JSON serialization (single line, '\n'-terminated): the WAL
// snapshot payload format.
std::string state_json(const ReplayState& state);
bool state_from_json(std::string_view json, ReplayState& out,
                     std::string* error = nullptr);

// Human-readable summary for muri-report replay.
std::string state_text(const ReplayState& state);

// Replays DecisionLog streams into a ReplayState. Feed it a whole JSONL
// dump, individual lines, or a snapshot to start from.
class ReplayEngine {
 public:
  ReplayEngine() = default;

  // Replaces the current state with a snapshot (WAL snapshot payload).
  bool load_snapshot(std::string_view snapshot_json,
                     std::string* error = nullptr);

  // Folds one JSONL record line.
  bool apply_line(std::string_view line, std::string* error = nullptr);

  // Folds a whole JSONL dump on top of the current state. A non-null
  // `tail_warning` tolerates a torn final line (parse_decision_log
  // contract).
  bool replay(std::string_view jsonl, std::string* error = nullptr,
              std::string* tail_warning = nullptr);

  const ReplayState& state() const noexcept { return state_; }
  ReplayState& mutable_state() noexcept { return state_; }

 private:
  ReplayState state_;
};

}  // namespace muri::recovery
