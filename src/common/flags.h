// Tiny command-line flag parser for the example binaries.
// Supports --name=value and --name value forms plus boolean switches.
// Unknown flags are collected so callers can reject or ignore them.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace muri {

class Flags {
 public:
  // Parses argv; flags start with "--". "--x=1", "--x 1" and bare "--x"
  // (empty value) are accepted. Non-flag tokens become positional args.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  // Typed getters with defaults; throw std::invalid_argument on a value
  // that does not parse.
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;
  double get_double(const std::string& name, double fallback) const;
  int get_int(const std::string& name, int fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  // Names that were provided but never read; useful for typo detection.
  std::vector<std::string> unread() const;

  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

// Writes "warning: unused flag --<name>" to `out`, one line per flag of
// `flags` that was provided but never read, and returns how many lines it
// wrote. Call it after the last flag read, so a dead or misspelled flag is
// reported instead of silently ignored.
int warn_unread(const Flags& flags, std::FILE* out = stderr);

}  // namespace muri
