// Durable write path for the DecisionLog, and crash recovery over it
// (DESIGN.md "Durability and recovery").
//
// DurableSink implements obs::DecisionLog::Sink: every state-tier record
// the log commits (obs/provenance.h; explanation records stay in memory)
// is framed (wal.h), appended to a WAL file, and made durable under a
// configurable fsync policy. Record ordinals, and with them every count
// below, number state records only.
//
// Recovery leans on the determinism the DecisionLog already guarantees:
// a fixed-seed run regenerates the exact same byte sequence of records.
// A resumed sink therefore reads the existing WAL once at open (truncating
// a torn tail in place and folding the records into recovered(), the
// same fold recover_wal runs), re-attaches to it and, as the re-executed
// run regenerates records, (a) byte-verifies ordinals that are already on
// disk — any mismatch flags divergence instead of corrupting the log —
// and (b) starts appending at the first ordinal past the old tail. A run
// resumed this way converges to the byte-identical WAL an uninterrupted
// run would have written.
//
// Crash-point injection for the CI sweeps rides on the same path:
// MURI_CRASH_AT=N (opt-in via honor_crash_env) calls _Exit at the
// boundary of record N — after its frame hit the file, since POSIX
// write() survives process death — and MURI_CRASH_TORN=1 makes the final
// frame a half-written torn tail instead, exercising the truncation path.
// stop_after_records is the in-process equivalent for tests that cannot
// afford to die.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/provenance.h"
#include "recovery/replay.h"
#include "recovery/wal.h"

namespace muri::recovery {

// Records between fsyncs under DurableSinkOptions::Fsync::kInterval.
inline constexpr std::int64_t kFsyncIntervalRecords = 64;

struct DurableSinkOptions {
  enum class Fsync { kNone, kInterval, kEveryRecord };
  // Durability/latency trade-off: kNone trusts the page cache (survives
  // process crashes, not power loss), kEveryRecord survives power loss at
  // one fsync per record, kInterval bounds the power-loss exposure to
  // kFsyncIntervalRecords records.
  Fsync fsync = Fsync::kInterval;
  // Re-attach to an existing WAL (see file comment). Off, the file is
  // truncated and written from scratch.
  bool resume = false;
  // Append-resume (the service daemon's restart path): re-attach to an
  // existing WAL *without* byte-verification. A daemon's records carry
  // wall-clock-derived submit times, so a restarted process cannot
  // regenerate the old byte stream the way a deterministic re-executed
  // run can; instead the torn tail is truncated, ordinals continue after
  // the on-disk records (records_seen() starts at that count), and every
  // new record appends immediately. The daemon re-admits its jobs from
  // recovered().state. Mutually exclusive with `resume`.
  bool append_resume = false;
  // Honor MURI_CRASH_AT / MURI_CRASH_TORN (CI crash sweeps only).
  bool honor_crash_env = false;
  // Stop writing (silently) after this many records, as if the process
  // had died at that boundary; -1 = never. In-process crash simulation.
  std::int64_t stop_after_records = -1;
};

// Result of reading a WAL back into scheduler state. state.records counts
// the record frames on disk: a resumed run re-appends from the ordinal
// after it.
struct RecoverResult {
  ReplayState state;
  bool torn = false;
  std::string torn_reason;
  std::size_t valid_bytes = 0;
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

  // What resume/append_resume read at open: the WAL's folded state and
  // its torn-tail report (read_wal_file once, then the fold recover_wal
  // runs). Empty for a fresh sink or a missing file.
  const RecoverResult& recovered() const noexcept { return recovered_; }

  // Counters for reports and tests.
  std::int64_t records_seen() const noexcept { return ordinal_; }
  std::int64_t records_verified() const noexcept { return verified_; }
  std::int64_t records_appended() const noexcept { return appended_; }

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
  void append_frame(std::string_view payload);
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

  // Resume bookkeeping: the on-disk record payloads to byte-verify.
  RecoverResult recovered_;
  std::vector<std::string> expected_;

  // Crash injection (resolved from the environment in the constructor).
  std::int64_t crash_at_ = 0;  // 0 = disabled
  bool crash_torn_ = false;
};

// Reconstructs state from `path` by folding its record frames. Torn
// tails are reported, not fatal. False with `error` on I/O failure, a
// frame that is not a record frame, or records that fail to parse.
bool recover_wal(const std::string& path, RecoverResult& out,
                 std::string* error = nullptr);

}  // namespace muri::recovery
