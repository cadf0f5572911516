#include "recovery/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace muri::recovery {

namespace {

// Table-driven CRC-32; the table is built once, on first use.
const std::uint32_t* crc_table() {
  static const auto* table = [] {
    auto* t = new std::uint32_t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void put_u32le(std::string& out, std::uint32_t v) {
  out += static_cast<char>(v & 0xFF);
  out += static_cast<char>((v >> 8) & 0xFF);
  out += static_cast<char>((v >> 16) & 0xFF);
  out += static_cast<char>((v >> 24) & 0xFF);
}

std::uint32_t get_u32le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace

std::uint32_t crc32_ieee(const void* data, std::size_t size,
                         std::uint32_t seed) {
  const std::uint32_t* table = crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void append_wal_frame(std::string& out, std::string_view payload) {
  out.append(kWalMagic, sizeof(kWalMagic));
  out += static_cast<char>(kRecordFrame);
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32le(out, crc32_ieee(payload.data(), payload.size()));
  out.append(payload.data(), payload.size());
}

bool looks_like_wal(std::string_view bytes) {
  return bytes.size() >= sizeof(kWalMagic) &&
         std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) == 0;
}

WalReadResult decode_wal(std::string_view bytes) {
  WalReadResult result;
  std::size_t pos = 0;
  const auto stop = [&](const std::string& why) {
    result.torn = true;
    result.torn_reason = why + " at byte offset " + std::to_string(pos);
  };
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kWalHeaderSize) {
      stop("incomplete frame header");
      break;
    }
    if (std::memcmp(bytes.data() + pos, kWalMagic, sizeof(kWalMagic)) != 0) {
      stop("bad frame magic");
      break;
    }
    const std::uint32_t len = get_u32le(bytes.data() + pos + 5);
    const std::uint32_t crc = get_u32le(bytes.data() + pos + 9);
    if (bytes.size() - pos - kWalHeaderSize < len) {
      stop("incomplete frame payload (" + std::to_string(len) + " bytes)");
      break;
    }
    const std::string_view payload =
        bytes.substr(pos + kWalHeaderSize, len);
    if (crc32_ieee(payload.data(), payload.size()) != crc) {
      stop("checksum mismatch");
      break;
    }
    // Only a whole, checksummed frame gets this far, so another kind here
    // was written on purpose: refuse the file rather than cut it.
    const auto kind = static_cast<std::uint8_t>(bytes[pos + 4]);
    if (kind != kRecordFrame) {
      result.error = "frame " + std::to_string(result.records.size()) +
                     " at byte offset " + std::to_string(pos) +
                     (kind == 2 ? " is a snapshot frame (kind 2), which "
                                  "this build does not read"
                                : " has unknown kind " + std::to_string(kind)) +
                     "; a WAL holds record frames only";
      break;
    }
    result.records.emplace_back(payload);
    pos += kWalHeaderSize + len;
  }
  result.valid_bytes = pos;
  return result;
}

bool read_wal_file(const std::string& path, WalReadResult& out,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  out = decode_wal(bytes);
  if (!out.error.empty()) {
    if (error != nullptr) *error = out.error;
    return false;
  }
  return true;
}

bool truncate_wal_file(const std::string& path, std::size_t valid_bytes,
                       std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  const bool ok = fd >= 0 &&
                  ::ftruncate(fd, static_cast<off_t>(valid_bytes)) == 0 &&
                  ::fsync(fd) == 0;
  if (!ok && error != nullptr) {
    *error = "cannot truncate " + path + ": " + std::strerror(errno);
  }
  if (fd >= 0) ::close(fd);
  return ok;
}

}  // namespace muri::recovery
