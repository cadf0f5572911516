#include "obs/json.h"

#include <cctype>
#include <cstdlib>
#include <limits>

namespace muri::obs {

namespace {

const JsonValue& null_value() {
  static const JsonValue v;
  return v;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    skip_ws();
    if (!parse_value(out)) {
      if (error != nullptr) {
        *error = message_ + " at offset " + std::to_string(pos_);
      }
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* message) {
    if (message_.empty()) message_ = message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  // Containers recurse; a hostile input of  [[[[…  must fail cleanly
  // instead of overflowing the stack.
  static constexpr int kMaxDepth = 192;

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        if (depth_ >= kMaxDepth) return fail("nesting too deep");
        return parse_object(out);
      case '[':
        if (depth_ >= kMaxDepth) return fail("nesting too deep");
        return parse_array(out);
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return literal("true") || fail("bad literal");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return literal("false") || fail("bad literal");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null") || fail("bad literal");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    const DepthGuard guard(this);
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    const DepthGuard guard(this);
    if (!consume('[')) return fail("expected '['");
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("bad escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // Only BMP escapes are produced by our writers; encode UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    out.type = JsonValue::Type::kNumber;
    return true;
  }

  struct DepthGuard {
    explicit DepthGuard(Parser* p) : parser(p) { ++parser->depth_; }
    ~DepthGuard() { --parser->depth_; }
    Parser* parser;
  };

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string message_;
};

bool check(bool ok, const char* message, std::string* error) {
  if (!ok && error != nullptr && error->empty()) *error = message;
  return ok;
}

}  // namespace

const JsonValue& JsonValue::at(const std::string& key) const {
  if (type != Type::kObject) return null_value();
  const auto it = object.find(key);
  return it != object.end() ? it->second : null_value();
}

std::int64_t JsonValue::as_int() const noexcept {
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (!(number > -kTwoTo63)) return std::numeric_limits<std::int64_t>::min();
  if (number >= kTwoTo63) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(number);
}

bool parse_json(std::string_view text, JsonValue& out, std::string* error) {
  return Parser(text).parse(out, error);
}

bool validate_chrome_trace(std::string_view text, std::string* error) {
  JsonValue root;
  if (!parse_json(text, root, error)) return false;
  if (!check(root.is_object(), "top level is not an object", error)) {
    return false;
  }
  const JsonValue& events = root.at("traceEvents");
  if (!check(events.is_array(), "traceEvents missing or not an array",
             error)) {
    return false;
  }
  if (!check(!events.array.empty(), "traceEvents is empty", error)) {
    return false;
  }
  for (const JsonValue& e : events.array) {
    if (!check(e.is_object(), "event is not an object", error)) return false;
    if (!check(e.at("name").is_string(), "event missing name", error) ||
        !check(e.at("ph").is_string(), "event missing ph", error) ||
        !check(e.at("pid").is_number(), "event missing pid", error) ||
        !check(e.at("tid").is_number(), "event missing tid", error)) {
      return false;
    }
    const std::string& ph = e.at("ph").string;
    if (ph == "M") continue;  // metadata events carry no timestamp
    if (!check(e.at("ts").is_number(), "event missing ts", error)) {
      return false;
    }
    if (ph == "X" &&
        !check(e.at("dur").is_number(), "complete event missing dur",
               error)) {
      return false;
    }
  }
  return true;
}

}  // namespace muri::obs
