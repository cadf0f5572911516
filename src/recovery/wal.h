// Write-ahead-log framing for the durable DecisionLog (DESIGN.md
// "Durability and recovery").
//
// A WAL file is a sequence of self-checking frames:
//
//   offset 0:  'M' 'W' 'A' 'L'      magic (4 bytes)
//   offset 4:  kind                 u8: 1 = record, 2 = snapshot
//   offset 5:  payload length       u32 little-endian
//   offset 9:  CRC-32 (IEEE)        u32 little-endian, over the payload
//   offset 13: payload              `length` bytes
//
// Record payloads are single state-tier DecisionLog JSONL lines (no
// trailing newline; obs/provenance.h); snapshot payloads are ReplayState
// JSON (replay.h). The format is append-only and self-delimiting: a
// reader scans frames until the first one that is incomplete or fails its
// checksum — the signature of an append cut short by a crash — and
// reports the byte offset where the valid prefix ends, so recovery can
// truncate the torn tail and resume appending from a clean boundary.
//
// A file whose *first* frame is a snapshot has been compacted: the
// records the snapshot summarizes were dropped, and the first record
// frame after it carries ordinal snapshot.records + 1.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace muri::recovery {

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum gzip and
// Ethernet use. `seed` chains incremental computations.
std::uint32_t crc32_ieee(const void* data, std::size_t size,
                         std::uint32_t seed = 0);

enum class FrameKind : std::uint8_t { kRecord = 1, kSnapshot = 2 };

inline constexpr std::size_t kWalHeaderSize = 13;
inline constexpr char kWalMagic[4] = {'M', 'W', 'A', 'L'};

struct WalFrame {
  FrameKind kind = FrameKind::kRecord;
  std::string payload;
};

// Serializes one frame onto `out`.
void append_wal_frame(std::string& out, FrameKind kind,
                      std::string_view payload);

struct WalReadResult {
  std::vector<WalFrame> frames;
  // Byte offset where the valid frame prefix ends (== bytes.size() for a
  // clean file).
  std::size_t valid_bytes = 0;
  // True when trailing bytes past valid_bytes had to be ignored.
  bool torn = false;
  std::string torn_reason;  // empty unless torn
};

// Decodes the longest valid frame prefix of `bytes`. Never fails: a torn
// or corrupt tail just stops the scan and is reported in the result.
WalReadResult decode_wal(std::string_view bytes);

// True when `bytes` opens with the WAL magic (muri-report uses this to
// tell a WAL from a plain JSONL dump).
bool looks_like_wal(std::string_view bytes);

// Reads and decodes `path`. False (with `error`) only on I/O failure;
// torn tails are reported through the result, not as errors.
bool read_wal_file(const std::string& path, WalReadResult& out,
                   std::string* error = nullptr);

// Cuts `path` in place to its first `valid_bytes` bytes (the valid frame
// prefix decode_wal reports) and fsyncs it; the prefix itself is never
// rewritten, so a crash mid-truncation cannot lose it. False (with
// `error`) on I/O failure.
bool truncate_wal_file(const std::string& path, std::size_t valid_bytes,
                       std::string* error = nullptr);

}  // namespace muri::recovery
