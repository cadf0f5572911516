// Minimal JSON reader + Chrome-trace schema check.
//
// The obs exporters *write* JSON; tests and the CI bench-smoke gate need
// to *read* it back to prove the output is well-formed and carries the
// tracks/events it claims to. This is a deliberately small recursive-
// descent parser for that closed loop — full JSON value grammar, UTF-8
// passed through verbatim, no streaming — not a general-purpose library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace muri::obs {

// A parsed JSON value. Objects use std::map so iteration is ordered.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const noexcept { return type == Type::kObject; }
  bool is_array() const noexcept { return type == Type::kArray; }
  bool is_string() const noexcept { return type == Type::kString; }
  bool is_number() const noexcept { return type == Type::kNumber; }

  // Object member or null-typed sentinel when absent / not an object.
  const JsonValue& at(const std::string& key) const;

  // The number truncated to an integer and saturated to int64's range
  // (NaN reads as the minimum): input can carry any double, and casting
  // one out of range is undefined.
  std::int64_t as_int() const noexcept;
};

// Parses `text` into `out`. On failure returns false and, if `error` is
// non-null, stores a message with the byte offset of the problem.
bool parse_json(std::string_view text, JsonValue& out,
                std::string* error = nullptr);

// Validates `text` as a Chrome trace_event JSON object: parses, requires
// a non-empty "traceEvents" array whose entries carry name/ph/pid/tid/ts
// with the right types ('X' events also need "dur"). On failure returns
// false with a diagnostic in `error`.
bool validate_chrome_trace(std::string_view text, std::string* error = nullptr);

}  // namespace muri::obs
