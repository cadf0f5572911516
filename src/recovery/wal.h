// Write-ahead-log framing for the durable DecisionLog (DESIGN.md
// "Durability and recovery").
//
// A WAL file is a sequence of self-checking record frames:
//
//   offset 0:  'M' 'W' 'A' 'L'      magic (4 bytes)
//   offset 4:  kind                 u8: 1 = record
//   offset 5:  payload length       u32 little-endian
//   offset 9:  CRC-32 (IEEE)        u32 little-endian, over the payload
//   offset 13: payload              `length` bytes
//
// Payloads are single state-tier DecisionLog JSONL lines (no trailing
// newline; obs/provenance.h). The format is append-only and
// self-delimiting: a reader scans frames until the first one that is
// incomplete or fails its checksum — the signature of an append cut short
// by a crash — and reports the byte offset where the valid prefix ends,
// so recovery can truncate the torn tail and resume appending from a
// clean boundary.
//
// Older builds also wrote snapshot frames (kind 2). A complete,
// checksummed frame of any kind but 1 is not a crash artifact, so it is
// never treated as a torn tail: the scan stops there and reports an error
// that names the frame, and readers refuse the file instead of cutting it.
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

inline constexpr std::size_t kWalHeaderSize = 13;
inline constexpr char kWalMagic[4] = {'M', 'W', 'A', 'L'};
inline constexpr std::uint8_t kRecordFrame = 1;

// Serializes one record frame onto `out`.
void append_wal_frame(std::string& out, std::string_view payload);

struct WalReadResult {
  // The payloads of the valid record-frame prefix, in file order.
  std::vector<std::string> records;
  // Byte offset where the valid frame prefix ends (== bytes.size() for a
  // clean file).
  std::size_t valid_bytes = 0;
  // True when trailing bytes past valid_bytes are a torn or corrupt tail.
  bool torn = false;
  std::string torn_reason;  // empty unless torn
  // Non-empty when the scan stopped at a complete, checksummed frame that
  // is not a record frame (see the file comment); torn is then false.
  std::string error;
};

// Decodes the longest valid record-frame prefix of `bytes`. A torn or
// corrupt tail stops the scan and is reported in the result, and so is a
// frame of another kind (through `error`).
WalReadResult decode_wal(std::string_view bytes);

// True when `bytes` opens with the WAL magic (muri-report uses this to
// tell a WAL from a plain JSONL dump).
bool looks_like_wal(std::string_view bytes);

// Reads and decodes `path`. False (with `error`) on I/O failure or when
// the file holds a frame that is not a record frame; torn tails are
// reported through the result, not as errors.
bool read_wal_file(const std::string& path, WalReadResult& out,
                   std::string* error = nullptr);

// Cuts `path` in place to its first `valid_bytes` bytes (the valid frame
// prefix decode_wal reports) and fsyncs it; the prefix itself is never
// rewritten, so a crash mid-truncation cannot lose it. False (with
// `error`) on I/O failure.
bool truncate_wal_file(const std::string& path, std::size_t valid_bytes,
                       std::string* error = nullptr);

}  // namespace muri::recovery
