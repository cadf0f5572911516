#include "common/flags.h"

#include <stdexcept>

namespace muri {

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(std::move(token));
      continue;
    }
    token = token.substr(2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[token] = argv[++i];
    } else {
      values_[token] = "";
    }
  }
}

bool Flags::has(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  read_[name] = true;
  return true;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  read_[name] = true;
  return it->second;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  read_[name] = true;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                it->second + "'");
  }
}

int Flags::get_int(const std::string& name, int fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  read_[name] = true;
  try {
    return std::stoi(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name +
                                " expects an integer, got '" + it->second +
                                "'");
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  read_[name] = true;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              v + "'");
}

std::vector<std::string> Flags::unread() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) {
    const auto it = read_.find(name);
    if (it == read_.end() || !it->second) names.push_back(name);
  }
  return names;
}

int warn_unread(const Flags& flags, std::FILE* out) {
  const std::vector<std::string> names = flags.unread();
  for (const std::string& name : names) {
    std::fprintf(out, "warning: unused flag --%s\n", name.c_str());
  }
  return static_cast<int>(names.size());
}

}  // namespace muri
