#include "recovery/durable.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

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

// Folds the record frames: the one fold recover_wal and a resuming
// DurableSink share.
bool recover_frames(const WalReadResult& decoded, RecoverResult& out,
                    std::string* error) {
  out = RecoverResult{};
  out.torn = decoded.torn;
  out.torn_reason = decoded.torn_reason;
  out.valid_bytes = decoded.valid_bytes;
  for (std::size_t i = 0; i < decoded.records.size(); ++i) {
    obs::JsonValue rec;
    if (!obs::parse_json(decoded.records[i], rec, error) ||
        !apply_record(out.state, rec, error)) {
      if (error != nullptr) {
        *error = "record frame " + std::to_string(i) + ": " + *error;
      }
      return false;
    }
  }
  return true;
}

}  // namespace

DurableSink::DurableSink(std::string path, DurableSinkOptions options)
    : path_(std::move(path)), options_(options) {
  if (options_.honor_crash_env) {
    crash_at_ = env_int64("MURI_CRASH_AT");
    crash_torn_ = env_int64("MURI_CRASH_TORN") != 0;
  }
  const bool reattach = options_.resume || options_.append_resume;
  fd_ = ::open(path_.c_str(),
               O_WRONLY | O_CREAT | (reattach ? O_APPEND : O_TRUNC), 0644);
  if (fd_ < 0) {
    ok_ = false;
    error_ = "cannot open " + path_ + ": " + std::strerror(errno);
    return;
  }
  if (!reattach) return;
  // One read and one fold of the durable prefix; a file the open just
  // created is a legal resume with nothing durable yet.
  WalReadResult decoded;
  std::string why;
  if (!read_wal_file(path_, decoded, &why) ||
      !recover_frames(decoded, recovered_, &why)) {
    ok_ = false;
    error_ = path_ + ": " + why;
    return;
  }
  if (decoded.torn &&
      !truncate_wal_file(path_, decoded.valid_bytes, &error_)) {
    ok_ = false;
    return;
  }
  if (options_.append_resume) {
    // Ordinals continue after the durable prefix; no byte-verification
    // window, so every new record lands in the append branch.
    ordinal_ = recovered_.state.records;
  } else {
    expected_ = std::move(decoded.records);
  }
}

DurableSink::~DurableSink() { close(); }

void DurableSink::append_frame(std::string_view payload) {
  std::string bytes;
  bytes.reserve(kWalHeaderSize + payload.size());
  append_wal_frame(bytes, payload);
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
      if (unsynced_ >= kFsyncIntervalRecords) sync();
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
  append_wal_frame(bytes, next_payload);
  const std::size_t cut = kWalHeaderSize + next_payload.size() / 2;
  write_all(fd_, bytes.data(), std::min(cut, bytes.size()));
  std::_Exit(137);
}

void DurableSink::on_record(std::string_view line) {
  // The WAL keeps the state tier only (obs/provenance.h). An explanation
  // record takes no ordinal, so fsync cadence, crash points,
  // stop_after_records and resume verification all count state records.
  if (obs::is_explanation_record(obs::record_type(line))) return;
  ++ordinal_;
  if (options_.stop_after_records >= 0 &&
      ordinal_ > options_.stop_after_records) {
    return;  // simulated dead process: the boundary was never reached
  }
  if (!ok_ || fd_ < 0) return;

  if (ordinal_ <= static_cast<std::int64_t>(expected_.size())) {
    // Already durable: byte-verify the regenerated record against the
    // disk. Divergence means this run is not the one the WAL came from —
    // stop before corrupting it.
    if (line != expected_[static_cast<std::size_t>(ordinal_ - 1)]) {
      ok_ = false;
      diverged_ = true;
      error_ = "resume divergence at record " + std::to_string(ordinal_) +
               ": regenerated bytes differ from WAL";
      return;
    }
    ++verified_;
  } else {
    if (crash_at_ == ordinal_ && crash_torn_) crash_now(line);
    append_frame(line);
    ++appended_;
    ++unsynced_;
    maybe_fsync();
    if (crash_at_ == ordinal_) std::_Exit(137);
  }
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

}  // namespace muri::recovery
