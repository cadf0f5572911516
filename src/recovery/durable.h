// Durable write path for the DecisionLog, and crash recovery over it
// (DESIGN.md "Durability and recovery").
//
// DurableSink implements obs::DecisionLog::Sink: every state-tier record
// the log commits (obs/provenance.h; explanation records stay in memory)
// is framed (wal.h), appended to a WAL file, and made durable under a
// configurable fsync policy. At a configurable cadence it also folds the
// stream into a ReplayState (replay.h) and appends a snapshot frame, so
// recovery reads the last snapshot plus the record suffix instead of the
// whole log. Record ordinals, and with them every count below, number
// state records only.
//
// Recovery leans on the determinism the DecisionLog already guarantees:
// a fixed-seed run regenerates the exact same byte sequence of records.
// A resumed sink therefore re-attaches to the existing WAL and, as the
// re-executed run regenerates records, (a) skips ordinals a compacted
// head snapshot covers, (b) byte-verifies ordinals that are already on
// disk — any mismatch flags divergence instead of corrupting the log —
// and (c) starts appending at the first ordinal past the old tail. A
// run resumed this way converges to the byte-identical WAL an
// uninterrupted run would have written.
//
// Crash-point injection for the CI sweeps rides on the same path:
// MURI_CRASH_AT=N (opt-in via honor_crash_env) calls _Exit at the
// boundary of record N — after its frame (and any due snapshot) hit the
// file, since POSIX write() survives process death — and MURI_CRASH_TORN=1
// makes the final frame a half-written torn tail instead, exercising the
// truncation path. stop_after_records is the in-process equivalent for
// tests that cannot afford to die.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/provenance.h"
#include "recovery/replay.h"
#include "recovery/wal.h"

namespace muri::recovery {

struct DurableSinkOptions {
  enum class Fsync { kNone, kInterval, kEveryRecord };
  // Durability/latency trade-off: kNone trusts the page cache (survives
  // process crashes, not power loss), kEveryRecord survives power loss at
  // one fsync per record, kInterval bounds the power-loss exposure to
  // `fsync_interval_records` records.
  Fsync fsync = Fsync::kInterval;
  std::int64_t fsync_interval_records = 64;
  // Append a snapshot frame after every N records; 0 disables. Recovery
  // cost is then bounded by N records of suffix replay.
  std::int64_t snapshot_every_records = 0;
  // Re-attach to an existing WAL (see file comment). Off, the file is
  // truncated and written from scratch.
  bool resume = false;
  // Append-resume (the service daemon's restart path): re-attach to an
  // existing WAL *without* byte-verification. A daemon's records carry
  // wall-clock-derived submit times, so a restarted process cannot
  // regenerate the old byte stream the way a deterministic re-executed
  // run can; instead the torn tail is truncated, ordinals continue after
  // the on-disk records (records_seen() starts at that count, and the
  // snapshot fold is pre-loaded from the recovered state so cadence
  // snapshots stay truthful), and every new record appends immediately.
  // Mutually exclusive with `resume`.
  bool append_resume = false;
  // Honor MURI_CRASH_AT / MURI_CRASH_TORN (CI crash sweeps only).
  bool honor_crash_env = false;
  // Stop writing (silently) after this many records, as if the process
  // had died at that boundary; -1 = never. In-process crash simulation.
  std::int64_t stop_after_records = -1;
  // Called after each record boundary becomes durable, with the record
  // ordinal (1-based). Observational: must not throw (it runs inside
  // DecisionLog::Entry's destructor).
  std::function<void(std::int64_t)> boundary_hook;
};

class DurableSink : public obs::DecisionLog::Sink {
 public:
  DurableSink(std::string path, DurableSinkOptions options = {});
  ~DurableSink() override;

  DurableSink(const DurableSink&) = delete;
  DurableSink& operator=(const DurableSink&) = delete;

  // False after any I/O failure, resume decode failure, or divergence;
  // on_record becomes a no-op once not ok (fail-stop, never corrupt).
  bool ok() const noexcept { return ok_; }
  const std::string& error() const noexcept { return error_; }

  // Resume verification found a regenerated record that differs from the
  // bytes on disk — the run is not the one the WAL came from.
  bool diverged() const noexcept { return diverged_; }

  void on_record(std::string_view line) override;

  // Flushes to the OS and fsyncs regardless of policy.
  bool sync();
  // sync() + close the descriptor; further records are dropped.
  void close();

  // Counters for reports and tests.
  std::int64_t records_seen() const noexcept { return ordinal_; }
  std::int64_t records_verified() const noexcept { return verified_; }
  std::int64_t records_appended() const noexcept { return appended_; }
  std::int64_t records_covered_by_snapshot() const noexcept {
    return head_covered_;
  }

  // Cumulative I/O cost of the durable path, feeding the daemon's /stats
  // dashboard and the wal_fsync_s SLO target. Callers that read this
  // concurrently with on_record must serialize externally (the daemon
  // holds its engine mutex for both).
  struct IoStats {
    std::int64_t appended_bytes = 0;   // frame bytes handed to write()
    double append_seconds = 0;         // total wall time inside write()
    std::int64_t fsyncs = 0;
    double fsync_seconds = 0;          // total wall time inside fsync()
    double last_fsync_seconds = 0;
    double max_fsync_seconds = 0;
    std::int64_t unsynced_records = 0; // durability lag right now
  };
  IoStats io_stats() const noexcept {
    IoStats s = io_;
    s.unsynced_records = unsynced_;
    return s;
  }

 private:
  void append_frame(FrameKind kind, std::string_view payload);
  void maybe_fsync();
  void crash_now(std::string_view next_payload);

  std::string path_;
  DurableSinkOptions options_;
  int fd_ = -1;
  bool ok_ = true;
  bool diverged_ = false;
  std::string error_;

  std::int64_t ordinal_ = 0;    // records observed (1-based after first)
  std::int64_t verified_ = 0;
  std::int64_t appended_ = 0;
  std::int64_t unsynced_ = 0;   // records since last fsync
  IoStats io_;

  // Resume bookkeeping.
  std::int64_t head_covered_ = 0;          // ordinals a head snapshot covers
  std::vector<std::string> expected_;      // on-disk record payloads after it
  // Ordinal of a cadence snapshot the old tail lost to truncation (its
  // record survived but the following snapshot frame did not); 0 = none.
  std::int64_t missing_snapshot_at_ = 0;

  // Crash injection (resolved from the environment in the constructor).
  std::int64_t crash_at_ = 0;  // 0 = disabled
  bool crash_torn_ = false;

  // Incremental fold for snapshot payloads (maintained only when
  // snapshots are enabled).
  ReplayState fold_;
};

// Result of reading a WAL back into scheduler state.
struct RecoverResult {
  ReplayState state;
  // Record ordinals present on disk: head-snapshot coverage + record
  // frames. A resumed run re-appends starting at records_on_disk + 1.
  std::int64_t records_on_disk = 0;
  std::int64_t snapshot_frames = 0;
  // Suffix length actually replayed (records after the last snapshot).
  std::int64_t replayed_records = 0;
  bool used_snapshot = false;
  bool torn = false;
  std::string torn_reason;
  std::size_t valid_bytes = 0;
};

// Reconstructs state from `path`: loads the last snapshot frame (if any)
// and folds the record frames after it. Torn tails are reported, not
// fatal. False with `error` on I/O failure, undecodable snapshots, or
// records that fail to parse.
bool recover_wal(const std::string& path, RecoverResult& out,
                 std::string* error = nullptr);

// Rewrites `path` as its last snapshot frame followed by the record
// frames after it, dropping the replayed prefix and earlier snapshots.
// A file without snapshots is folded into one head snapshot (recovery
// then has nothing to replay, and byte-verification of the dropped
// records is no longer possible — resume skips them instead). Returns
// false with `error` on I/O or decode failure.
bool compact_wal(const std::string& path, std::string* error = nullptr);

}  // namespace muri::recovery
