// Crash-safe simulation driver: recover a WAL, then re-execute the run
// deterministically with the DurableSink re-attached, converging to the
// byte-identical WAL and bit-identical SimResult of an uninterrupted
// run (DESIGN.md "Durability and recovery").
//
// The simulator is a deterministic state machine over (trace, scheduler,
// options, seeds); the WAL is its authoritative decision history. After
// a crash we therefore do not try to warp the simulator into the
// recovered state — we replay the state machine from the start and let
// the sink byte-verify the prefix that is already durable. Recovery cost
// is re-execution time (simulated time is free); durability cost is the
// fsync policy. The sink's one read of the WAL also folds the recovered
// ReplayState, which is returned, because that — not the re-execution —
// is what a live daemon would serve from while catching up.
#pragma once

#include <string>

#include "recovery/durable.h"
#include "sim/simulator.h"

namespace muri::recovery {

struct ResumeOptions {
  // WAL path to recover and continue appending to.
  std::string wal_path;
  // Sink configuration (`resume` is forced on).
  DurableSinkOptions sink;
};

struct ResumeReport {
  // What the resumed sink read from the WAL before re-execution: the
  // folded state and the torn-tail report.
  RecoverResult recovered;
  // Re-execution accounting from the sink.
  std::int64_t records_verified = 0;
  std::int64_t records_appended = 0;
  bool diverged = false;
};

// Recovers `options.wal_path` (tolerating and truncating a torn tail),
// re-runs the simulation with the DurableSink resumed onto the WAL, and
// returns the final SimResult. False with `error` on I/O failure,
// undecodable WAL contents, or divergence (the regenerated records do
// not match the durable prefix — wrong trace/seed/options for this WAL).
// A missing WAL file is a cold start: the run simply executes durably.
//
// `options.sim.decisions` is overridden with the recovery-owned log;
// `scheduler` must be a fresh instance (schedulers carry state across
// rounds).
bool resume_simulation(const Trace& trace, Scheduler& scheduler,
                       const SimOptions& sim_options,
                       const ResumeOptions& options, SimResult& result,
                       ResumeReport& report, std::string* error = nullptr);

}  // namespace muri::recovery
