#include "recovery/durable.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace muri::recovery {

namespace {

// Full write() loop; short writes are legal on regular files under
// signals, and a half-written frame must never be mistaken for success.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::int64_t env_int64(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  return std::strtoll(v, nullptr, 10);
}

// Loads the last snapshot frame (if any) and folds the record frames
// after it: the one fold recover_wal and a resuming DurableSink share.
bool recover_frames(const WalReadResult& decoded, RecoverResult& out,
                    std::string* error) {
  out = RecoverResult{};
  out.torn = decoded.torn;
  out.torn_reason = decoded.torn_reason;
  out.valid_bytes = decoded.valid_bytes;
  const std::vector<WalFrame>& frames = decoded.frames;
  std::size_t suffix = 0;  // first frame after the last snapshot
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].kind == FrameKind::kSnapshot) {
      suffix = i + 1;
      ++out.snapshot_frames;
    }
  }
  if (suffix > 0) {
    if (!state_from_json(frames[suffix - 1].payload, out.state, error)) {
      return false;
    }
    out.used_snapshot = true;
  }
  for (std::size_t i = suffix; i < frames.size(); ++i) {
    obs::JsonValue rec;
    if (!obs::parse_json(frames[i].payload, rec, error) ||
        !apply_record(out.state, rec, error)) {
      if (error != nullptr) {
        *error = "record frame " + std::to_string(i) + ": " + *error;
      }
      return false;
    }
    ++out.replayed_records;
  }
  // A snapshot counts the records folded into it, so the fold's count is
  // the ordinal of the last durable record, a compacted head included.
  out.records_on_disk = out.state.records;
  return true;
}

}  // namespace

DurableSink::DurableSink(std::string path, DurableSinkOptions options)
    : path_(std::move(path)), options_(options) {
  if (options_.honor_crash_env) {
    crash_at_ = env_int64("MURI_CRASH_AT");
    crash_torn_ = env_int64("MURI_CRASH_TORN") != 0;
  }
  if (options_.resume || options_.append_resume) {
    // One read and one fold of the durable prefix. A missing file is a
    // legal resume: nothing was durable yet.
    WalReadResult decoded;
    std::string io_error;
    if (read_wal_file(path_, decoded, &io_error)) {
      if ((decoded.torn &&
           !truncate_wal_file(path_, decoded.valid_bytes, &error_)) ||
          !recover_frames(decoded, recovered_, &error_)) {
        ok_ = false;
        return;
      }
      const std::int64_t on_disk = recovered_.records_on_disk;
      if (options_.append_resume) {
        // Ordinals continue after the durable prefix; no byte-verification
        // window, so every new record lands in the append branch.
        ordinal_ = on_disk;
        if (options_.snapshot_every_records > 0) fold_ = recovered_.state;
      } else {
        for (WalFrame& frame : decoded.frames) {
          if (frame.kind == FrameKind::kRecord) {
            expected_.push_back(std::move(frame.payload));
          }
        }
        // A compacted head snapshot covers the ordinals before the first
        // record frame, which no longer exist as frames.
        head_covered_ = on_disk - static_cast<std::int64_t>(expected_.size());
        // A crash can cut the file between a record and the cadence
        // snapshot due right after it; note the gap so the resumed run
        // restores the snapshot at the same file position.
        if (options_.snapshot_every_records > 0 && !decoded.frames.empty() &&
            decoded.frames.back().kind == FrameKind::kRecord &&
            on_disk % options_.snapshot_every_records == 0) {
          missing_snapshot_at_ = on_disk;
        }
      }
    }
  }
  const int flags = options_.resume || options_.append_resume
                        ? (O_WRONLY | O_CREAT | O_APPEND)
                        : (O_WRONLY | O_CREAT | O_TRUNC);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    ok_ = false;
    error_ = "cannot open " + path_ + ": " + std::strerror(errno);
  }
}

DurableSink::~DurableSink() { close(); }

void DurableSink::append_frame(FrameKind kind, std::string_view payload) {
  std::string bytes;
  bytes.reserve(kWalHeaderSize + payload.size());
  append_wal_frame(bytes, kind, payload);
  const auto t0 = std::chrono::steady_clock::now();
  if (!write_all(fd_, bytes.data(), bytes.size())) {
    ok_ = false;
    error_ = "write to " + path_ + " failed: " + std::strerror(errno);
  }
  io_.append_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  io_.appended_bytes += static_cast<std::int64_t>(bytes.size());
}

void DurableSink::maybe_fsync() {
  switch (options_.fsync) {
    case DurableSinkOptions::Fsync::kEveryRecord:
      sync();
      break;
    case DurableSinkOptions::Fsync::kInterval:
      if (unsynced_ >= options_.fsync_interval_records) sync();
      break;
    case DurableSinkOptions::Fsync::kNone:
      break;
  }
}

void DurableSink::crash_now(std::string_view next_payload) {
  // Simulate a crash mid-append: half the frame reaches the file, then
  // the process dies. write() survives _Exit, fsync is irrelevant to
  // process death (only machine death), so the torn tail is durable.
  std::string bytes;
  append_wal_frame(bytes, FrameKind::kRecord, next_payload);
  const std::size_t cut = kWalHeaderSize + next_payload.size() / 2;
  write_all(fd_, bytes.data(), std::min(cut, bytes.size()));
  std::_Exit(137);
}

void DurableSink::on_record(std::string_view line) {
  // The WAL keeps the state tier only (obs/provenance.h). An explanation
  // record takes no ordinal, so fsync and snapshot cadence, crash points,
  // stop_after_records, boundary_hook and resume verification all count
  // state records.
  if (obs::is_explanation_record(obs::record_type(line))) return;
  ++ordinal_;
  if (options_.stop_after_records >= 0 &&
      ordinal_ > options_.stop_after_records) {
    return;  // simulated dead process: the boundary was never reached
  }
  if (!ok_ || fd_ < 0) return;

  if (options_.snapshot_every_records > 0) {
    obs::JsonValue rec;
    std::string fold_error;
    if (!obs::parse_json(line, rec, &fold_error) ||
        !apply_record(fold_, rec, &fold_error)) {
      ok_ = false;
      error_ = "record " + std::to_string(ordinal_) +
               " unfoldable: " + fold_error;
      return;
    }
  }
  const bool snapshot_due =
      options_.snapshot_every_records > 0 &&
      ordinal_ % options_.snapshot_every_records == 0;

  if (ordinal_ <= head_covered_) {
    // Compacted away; the snapshot at the head vouches for it.
  } else if (ordinal_ - head_covered_ <=
             static_cast<std::int64_t>(expected_.size())) {
    // Already durable: byte-verify the regenerated record against the
    // disk. Divergence means this run is not the one the WAL came from —
    // stop before corrupting it.
    const std::string& want =
        expected_[static_cast<std::size_t>(ordinal_ - head_covered_ - 1)];
    if (line != want) {
      ok_ = false;
      diverged_ = true;
      error_ = "resume divergence at record " + std::to_string(ordinal_) +
               ": regenerated bytes differ from WAL";
      return;
    }
    ++verified_;
    if (snapshot_due && ordinal_ == missing_snapshot_at_) {
      append_frame(FrameKind::kSnapshot, state_json(fold_));
      ++unsynced_;
      maybe_fsync();
      missing_snapshot_at_ = 0;
    }
  } else {
    if (crash_at_ == ordinal_ && crash_torn_) crash_now(line);
    append_frame(FrameKind::kRecord, line);
    if (snapshot_due) append_frame(FrameKind::kSnapshot, state_json(fold_));
    ++appended_;
    ++unsynced_;
    maybe_fsync();
    if (crash_at_ == ordinal_) std::_Exit(137);
  }
  if (options_.boundary_hook) options_.boundary_hook(ordinal_);
}

bool DurableSink::sync() {
  if (fd_ < 0) return ok_;
  const auto t0 = std::chrono::steady_clock::now();
  if (::fsync(fd_) != 0) {
    ok_ = false;
    error_ = "fsync of " + path_ + " failed: " + std::strerror(errno);
  }
  const double cost =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ++io_.fsyncs;
  io_.fsync_seconds += cost;
  io_.last_fsync_seconds = cost;
  if (cost > io_.max_fsync_seconds) io_.max_fsync_seconds = cost;
  unsynced_ = 0;
  return ok_;
}

void DurableSink::close() {
  if (fd_ < 0) return;
  sync();
  ::close(fd_);
  fd_ = -1;
}

bool recover_wal(const std::string& path, RecoverResult& out,
                 std::string* error) {
  out = RecoverResult{};
  WalReadResult decoded;
  return read_wal_file(path, decoded, error) &&
         recover_frames(decoded, out, error);
}

bool compact_wal(const std::string& path, std::string* error) {
  WalReadResult decoded;
  if (!read_wal_file(path, decoded, error)) return false;
  // Keep the newest snapshot and the record suffix after it, dropping the
  // replayed prefix and the older snapshots it subsumes. A file without
  // snapshots folds into one head snapshot.
  const std::vector<WalFrame>& frames = decoded.frames;
  std::size_t keep = frames.size();
  while (keep > 0 && frames[keep - 1].kind == FrameKind::kRecord) --keep;
  std::string bytes;
  if (keep == 0) {
    RecoverResult all;
    if (!recover_frames(decoded, all, error)) return false;
    append_wal_frame(bytes, FrameKind::kSnapshot, state_json(all.state));
  } else {
    --keep;  // the snapshot itself
  }
  for (std::size_t i = keep; i < frames.size(); ++i) {
    append_wal_frame(bytes, frames[i].kind, frames[i].payload);
  }

  std::ofstream outf(path, std::ios::binary | std::ios::trunc);
  if (!outf) {
    if (error != nullptr) *error = "cannot rewrite " + path;
    return false;
  }
  outf.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  outf.close();
  if (!outf) {
    if (error != nullptr) *error = "short write rewriting " + path;
    return false;
  }
  return true;
}

}  // namespace muri::recovery
