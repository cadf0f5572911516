#include "obs/provenance.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <set>

namespace muri::obs {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_json_integer(std::string& out, std::int64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void append_json_double(std::string& out, double v) {
  // Same contract as the trace exporter: integers plain (readable, no
  // exponent), everything else %.17g — exact for IEEE doubles and
  // deterministic for a given value, which byte-stability leans on.
  // std::to_chars with general format and precision 17 writes the bytes
  // of printf's %.17g without the locale and format-string parsing.
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 &&
      v < 1e15) {
    append_json_integer(out, static_cast<std::int64_t>(v));
    return;
  }
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

DecisionLog::Entry::~Entry() {
  if (log_ == nullptr) return;
  line_ += '}';
  log_->append(std::move(line_));
}

DecisionLog::Entry::Entry(Entry&& other) noexcept
    : log_(other.log_), line_(std::move(other.line_)) {
  other.log_ = nullptr;
}

DecisionLog::Entry& DecisionLog::Entry::num(const char* key, double v) {
  line_ += ",\"";
  line_ += key;
  line_ += "\":";
  append_json_double(line_, v);
  return *this;
}

DecisionLog::Entry& DecisionLog::Entry::integer(const char* key,
                                                std::int64_t v) {
  line_ += ",\"";
  line_ += key;
  line_ += "\":";
  append_json_integer(line_, v);
  return *this;
}

DecisionLog::Entry& DecisionLog::Entry::str(const char* key,
                                            std::string_view v) {
  line_ += ",\"";
  line_ += key;
  line_ += "\":\"";
  append_json_escaped(line_, v);
  line_ += '"';
  return *this;
}

DecisionLog::Entry& DecisionLog::Entry::ints(const char* key,
                                             const std::vector<int>& v) {
  line_ += ",\"";
  line_ += key;
  line_ += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) line_ += ',';
    append_json_double(line_, v[i]);
  }
  line_ += ']';
  return *this;
}

DecisionLog::Entry& DecisionLog::Entry::ids(
    const char* key, const std::vector<std::int64_t>& v) {
  line_ += ",\"";
  line_ += key;
  line_ += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) line_ += ',';
    append_json_integer(line_, v[i]);
  }
  line_ += ']';
  return *this;
}

DecisionLog::Entry& DecisionLog::Entry::nums(const char* key,
                                             const std::vector<double>& v) {
  line_ += ",\"";
  line_ += key;
  line_ += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) line_ += ',';
    append_json_double(line_, v[i]);
  }
  line_ += ']';
  return *this;
}

DecisionLog::Entry& DecisionLog::Entry::strs(
    const char* key, const std::vector<std::string>& v) {
  line_ += ",\"";
  line_ += key;
  line_ += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) line_ += ',';
    line_ += '"';
    append_json_escaped(line_, v[i]);
    line_ += '"';
  }
  line_ += ']';
  return *this;
}

DecisionLog::Entry& DecisionLog::Entry::raw(const char* key,
                                            std::string_view json) {
  line_ += ",\"";
  line_ += key;
  line_ += "\":";
  line_ += json;
  return *this;
}

DecisionLog::Entry DecisionLog::entry(std::string_view type) {
  std::string line = "{\"type\":\"";
  append_json_escaped(line, type);
  line += "\",\"round\":";
  append_json_integer(line, current_round());
  return Entry(this, std::move(line));
}

std::int64_t DecisionLog::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(lines_.size());
}

std::string DecisionLog::jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::size_t total = 0;
  for (const auto& line : lines_) total += line.size() + 1;
  out.reserve(total);
  for (const auto& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

bool DecisionLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::string dump = jsonl();
  f.write(dump.data(), static_cast<std::streamsize>(dump.size()));
  return f.good();
}

void DecisionLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.clear();
  round_.store(0, std::memory_order_relaxed);
}

void DecisionLog::set_sink(Sink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = sink;
}

void DecisionLog::set_subscriber(Sink* subscriber) {
  std::lock_guard<std::mutex> lock(mu_);
  subscriber_ = subscriber;
}

void DecisionLog::append(std::string line) {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(std::move(line));
  if (sink_ != nullptr) sink_->on_record(lines_.back());
  if (subscriber_ != nullptr) subscriber_->on_record(lines_.back());
}

bool parse_decision_log(std::string_view jsonl,
                        std::vector<DecisionRecord>& out,
                        std::string* error, std::string* tail_warning) {
  out.clear();
  if (tail_warning != nullptr) tail_warning->clear();
  std::size_t pos = 0;
  std::int64_t line_no = 0;
  while (pos < jsonl.size()) {
    const std::size_t line_start = pos;
    std::size_t eol = jsonl.find('\n', pos);
    if (eol == std::string_view::npos) eol = jsonl.size();
    const std::string_view line = jsonl.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    DecisionRecord rec;
    std::string parse_error;
    if (!parse_json(line, rec.value, &parse_error)) {
      // A broken *final* line is the signature of an append cut short by
      // a crash; callers that pass tail_warning keep the valid prefix.
      if (tail_warning != nullptr &&
          jsonl.find_first_not_of(" \t\r\n", pos) == std::string_view::npos) {
        *tail_warning = "truncated or garbled final line " +
                        std::to_string(line_no) + " dropped at byte offset " +
                        std::to_string(line_start) + ": " + parse_error;
        return true;
      }
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + parse_error;
      }
      return false;
    }
    rec.raw.assign(line);
    out.push_back(std::move(rec));
  }
  return true;
}

namespace {

bool is_int_array(const JsonValue& v) {
  if (!v.is_array()) return false;
  for (const auto& e : v.array) {
    if (!e.is_number()) return false;
  }
  return true;
}

bool is_nested_int_array(const JsonValue& v) {
  if (!v.is_array()) return false;
  for (const auto& e : v.array) {
    if (!is_int_array(e)) return false;
  }
  return true;
}

bool is_string_array(const JsonValue& v) {
  if (!v.is_array()) return false;
  for (const auto& e : v.array) {
    if (!e.is_string()) return false;
  }
  return true;
}

// Per-type required fields. `i` = int array, `I` = nested int array,
// `n` = number, `s` = string, `S` = string array, `e` = [u,v,γ] triples.
struct FieldSpec {
  const char* key;
  char kind;
};

bool check_fields(const JsonValue& rec, const FieldSpec* specs,
                  std::size_t n, std::string* why) {
  for (std::size_t i = 0; i < n; ++i) {
    const JsonValue& v = rec.at(specs[i].key);
    bool ok = false;
    switch (specs[i].kind) {
      case 'n':
        ok = v.is_number();
        break;
      case 's':
        ok = v.is_string();
        break;
      case 'S':
        ok = is_string_array(v);
        break;
      case 'i':
        ok = is_int_array(v);
        break;
      case 'I':
        ok = is_nested_int_array(v);
        break;
      case 'e': {
        ok = v.is_array();
        if (ok) {
          for (const auto& edge : v.array) {
            if (!edge.is_array() || edge.array.size() != 3 ||
                !edge.array[0].is_number() || !edge.array[1].is_number() ||
                !edge.array[2].is_number()) {
              ok = false;
              break;
            }
          }
        }
        break;
      }
      default:
        ok = false;
    }
    if (!ok) {
      if (why != nullptr) {
        *why = std::string("missing or mistyped field \"") + specs[i].key +
               "\"";
      }
      return false;
    }
  }
  return true;
}

bool check_record_schema(const JsonValue& rec, const std::string& type,
                         std::string* why) {
  static const FieldSpec kRoundStart[] = {
      {"scheduler", 's'}, {"policy", 's'}, {"queue", 'n'}, {"capacity", 'n'}};
  static const FieldSpec kPriority[] = {
      {"policy", 's'}, {"job", 'i'}, {"score", 'i'}};
  static const FieldSpec kBucket[] = {{"gpus", 'n'}, {"jobs", 'i'}};
  static const FieldSpec kMatchRound[] = {{"gpus", 'n'},    {"stage", 'n'},
                                          {"nodes", 'I'},   {"edges", 'e'},
                                          {"matched", 'I'}, {"unmatched", 'i'}};
  static const FieldSpec kGroup[] = {
      {"jobs", 'i'}, {"gpus", 'n'}, {"mode", 's'}, {"gamma", 'n'}};
  static const FieldSpec kDeferred[] = {{"jobs", 'i'}, {"reason", 's'}};
  static const FieldSpec kRoundEnd[] = {
      {"groups", 'n'}, {"admitted", 'n'}, {"rejected", 'n'}};
  static const FieldSpec kPlacement[] = {
      {"t", 'n'}, {"jobs", 'i'}, {"gpus", 'n'}, {"machines", 'i'}};
  static const FieldSpec kPlacementSkip[] = {
      {"t", 'n'}, {"jobs", 'i'}, {"reason", 's'}};
  static const FieldSpec kJobEvent[] = {
      {"t", 'n'}, {"job", 'n'}, {"reason", 's'}};
  static const FieldSpec kEvict[] = {
      {"t", 'n'}, {"job", 'n'}, {"machine", 'n'}, {"reason", 's'}};
  static const FieldSpec kDegraded[] = {
      {"t", 'n'}, {"jobs", 'i'}, {"gamma", 'n'}};
  static const FieldSpec kExecGroup[] = {{"names", 'S'}, {"slots", 'n'}};
  static const FieldSpec kExecResult[] = {{"names", 'S'}, {"gamma", 'n'}};
  static const FieldSpec kSimStart[] = {{"t", 'n'},
                                        {"jobs", 'n'},
                                        {"machines", 'n'},
                                        {"gpus", 'n'},
                                        {"interval", 'n'}};
  static const FieldSpec kArrival[] = {{"t", 'n'}, {"job", 'n'}, {"gpus", 'n'}};
  static const FieldSpec kMachineEvent[] = {{"t", 'n'}, {"machine", 'n'}};
  static const FieldSpec kFinish[] = {{"t", 'n'},
                                      {"job", 'n'},
                                      {"jct", 'n'},
                                      {"queueing", 'n'},
                                      {"running", 'n'},
                                      {"restart_overhead", 'n'},
                                      {"preemptions", 'n'}};
  static const FieldSpec kSimEnd[] = {{"t", 'n'},
                                      {"makespan", 'n'},
                                      {"finished", 'n'},
                                      {"unfinished", 'n'}};
  // Service-daemon lifecycle records (src/service).
  static const FieldSpec kJobSubmit[] = {{"t", 'n'},
                                         {"job", 'n'},
                                         {"model", 's'},
                                         {"gpus", 'n'},
                                         {"iterations", 'n'}};
  static const FieldSpec kJobProgress[] = {
      {"t", 'n'}, {"job", 'n'}, {"done", 'n'}};
  static const FieldSpec kDaemonStart[] = {
      {"t", 'n'}, {"machines", 'n'}, {"gpus", 'n'}};
  static const FieldSpec kDaemonStop[] = {{"t", 'n'}};
  // Per-job tracing records (src/obs/jobtrace).
  static const FieldSpec kWait[] = {{"t", 'n'}, {"job", 'i'}, {"bucket", 'S'}};
  static const FieldSpec kStraggler[] = {
      {"t", 'n'}, {"job", 'n'}, {"factor", 'n'}};

  struct Schema {
    const char* type;
    const FieldSpec* specs;
    std::size_t n;
  };
  static const Schema kSchemas[] = {
      {"round_start", kRoundStart, std::size(kRoundStart)},
      {"priority", kPriority, std::size(kPriority)},
      {"bucket", kBucket, std::size(kBucket)},
      {"match_round", kMatchRound, std::size(kMatchRound)},
      {"group", kGroup, std::size(kGroup)},
      {"deferred", kDeferred, std::size(kDeferred)},
      {"round_end", kRoundEnd, std::size(kRoundEnd)},
      {"placement", kPlacement, std::size(kPlacement)},
      {"placement_skip", kPlacementSkip, std::size(kPlacementSkip)},
      {"preempt", kJobEvent, std::size(kJobEvent)},
      {"restart", kJobEvent, std::size(kJobEvent)},
      {"evict", kEvict, std::size(kEvict)},
      {"fault", kJobEvent, std::size(kJobEvent)},
      {"degraded_continue", kDegraded, std::size(kDegraded)},
      {"exec_group", kExecGroup, std::size(kExecGroup)},
      {"exec_result", kExecResult, std::size(kExecResult)},
      {"sim_start", kSimStart, std::size(kSimStart)},
      {"arrival", kArrival, std::size(kArrival)},
      {"machine_down", kMachineEvent, std::size(kMachineEvent)},
      {"machine_up", kMachineEvent, std::size(kMachineEvent)},
      {"finish", kFinish, std::size(kFinish)},
      {"sim_end", kSimEnd, std::size(kSimEnd)},
      {"job_submit", kJobSubmit, std::size(kJobSubmit)},
      {"job_cancel", kJobEvent, std::size(kJobEvent)},
      {"job_progress", kJobProgress, std::size(kJobProgress)},
      {"job_restore", kJobProgress, std::size(kJobProgress)},
      {"daemon_start", kDaemonStart, std::size(kDaemonStart)},
      {"daemon_stop", kDaemonStop, std::size(kDaemonStop)},
      {"wait", kWait, std::size(kWait)},
      {"straggler", kStraggler, std::size(kStraggler)},
  };
  for (const auto& schema : kSchemas) {
    if (type == schema.type) {
      return check_fields(rec, schema.specs, schema.n, why);
    }
  }
  // Unknown types are forward-compatible: type+round alone suffice.
  return true;
}

}  // namespace

bool validate_decision_log(std::string_view jsonl, std::string* error,
                           std::string* tail_warning) {
  std::vector<DecisionRecord> records;
  if (!parse_decision_log(jsonl, records, error, tail_warning)) return false;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonValue& rec = records[i].value;
    const auto fail = [&](const std::string& why) {
      // A schema-broken *final* record gets the same torn-tail grace as a
      // parse-broken final line: report, drop, keep the prefix.
      if (tail_warning != nullptr && i + 1 == records.size()) {
        const std::size_t offset = jsonl.rfind(records[i].raw);
        *tail_warning = "truncated or garbled final record " +
                        std::to_string(i + 1) + " dropped at byte offset " +
                        std::to_string(offset) + ": " + why;
        return true;
      }
      if (error != nullptr) {
        *error = "record " + std::to_string(i + 1) + ": " + why;
      }
      return false;
    };
    if (!rec.is_object()) return fail("not a JSON object");
    const JsonValue& type = rec.at("type");
    if (!type.is_string()) return fail("missing string \"type\"");
    const JsonValue& round = rec.at("round");
    if (!round.is_number() || round.number < 0 ||
        round.number != static_cast<double>(
                            static_cast<std::int64_t>(round.number))) {
      return fail("missing non-negative integer \"round\"");
    }
    std::string why;
    if (!check_record_schema(rec, type.string, &why)) {
      return fail("type \"" + type.string + "\": " + why);
    }
  }
  return true;
}

namespace {

std::int64_t round_of(const JsonValue& rec) {
  return static_cast<std::int64_t>(rec.at("round").number);
}

bool int_array_contains(const JsonValue& arr, std::int64_t job) {
  if (!arr.is_array()) return false;
  for (const auto& e : arr.array) {
    if (e.is_number() &&
        static_cast<std::int64_t>(e.number) == job) {
      return true;
    }
  }
  return false;
}

// Does this record mention `job`? Checks every field that carries job ids:
// scalar "job", list "jobs", priority's parallel "job" array, and
// match_round's nested "nodes" member lists.
bool mentions_job(const JsonValue& rec, std::int64_t job) {
  const JsonValue& scalar = rec.at("job");
  if (scalar.is_number() &&
      static_cast<std::int64_t>(scalar.number) == job) {
    return true;
  }
  if (int_array_contains(scalar, job)) return true;
  if (int_array_contains(rec.at("jobs"), job)) return true;
  const JsonValue& nodes = rec.at("nodes");
  if (nodes.is_array()) {
    for (const auto& node : nodes.array) {
      if (int_array_contains(node, job)) return true;
    }
  }
  return false;
}

std::string fmt_num(double v) {
  std::string out;
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 &&
      v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out = buf;
  return out;
}

std::string fmt_int_array(const JsonValue& arr) {
  std::string out = "[";
  for (std::size_t i = 0; i < arr.array.size(); ++i) {
    if (i != 0) out += ' ';
    out += fmt_num(arr.array[i].number);
  }
  out += ']';
  return out;
}

// One human line per record, used by both explain queries. `focus_job` < 0
// renders neutrally; otherwise phrasing centers on that job (its priority
// score, its node's incident edges).
std::string render_record(const JsonValue& rec, std::int64_t focus_job) {
  const std::string& type = rec.at("type").string;
  std::string out;
  if (type == "round_start") {
    out = "queue of " + fmt_num(rec.at("queue").number) + " under " +
          rec.at("scheduler").string + "/" + rec.at("policy").string +
          ", capacity " + fmt_num(rec.at("capacity").number) + " GPUs";
  } else if (type == "priority") {
    const JsonValue& jobs = rec.at("job");
    const JsonValue& scores = rec.at("score");
    if (focus_job >= 0) {
      for (std::size_t i = 0; i < jobs.array.size(); ++i) {
        if (static_cast<std::int64_t>(jobs.array[i].number) == focus_job) {
          out = "queued at position " + std::to_string(i + 1) + "/" +
                std::to_string(jobs.array.size()) + " with " +
                rec.at("policy").string + " score " +
                fmt_num(i < scores.array.size() ? scores.array[i].number : 0);
          break;
        }
      }
    } else {
      out = rec.at("policy").string + " priorities for " +
            std::to_string(jobs.array.size()) + " jobs: job " +
            fmt_int_array(jobs) + " score " + fmt_int_array(scores);
    }
  } else if (type == "bucket") {
    out = "candidate bucket gpus=" + fmt_num(rec.at("gpus").number) +
          " jobs=" + fmt_int_array(rec.at("jobs"));
  } else if (type == "match_round") {
    const JsonValue& nodes = rec.at("nodes");
    const JsonValue& edges = rec.at("edges");
    const JsonValue& matched = rec.at("matched");
    out = "matching stage " + fmt_num(rec.at("stage").number) + " (gpus=" +
          fmt_num(rec.at("gpus").number) + "): " +
          std::to_string(nodes.array.size()) + " nodes, " +
          std::to_string(edges.array.size()) + " edges, " +
          std::to_string(matched.array.size()) + " merged";
    if (rec.at("fallback").boolean) out += " [fallback]";
    // The γ evidence: for a focused job, its node's incident edges with
    // the matched partner flagged; otherwise every edge.
    int focus_node = -1;
    if (focus_job >= 0) {
      for (std::size_t i = 0; i < nodes.array.size(); ++i) {
        if (int_array_contains(nodes.array[i], focus_job)) {
          focus_node = static_cast<int>(i);
          break;
        }
      }
    }
    for (const auto& edge : edges.array) {
      const int u = static_cast<int>(edge.array[0].number);
      const int v = static_cast<int>(edge.array[1].number);
      if (focus_node >= 0 && u != focus_node && v != focus_node) continue;
      bool won = false;
      for (const auto& pair : matched.array) {
        if (static_cast<int>(pair.array[0].number) == u &&
            static_cast<int>(pair.array[1].number) == v) {
          won = true;
          break;
        }
      }
      out += "\n      ";
      out += won ? "merged " : "rejected ";
      if (u < static_cast<int>(nodes.array.size()) &&
          v < static_cast<int>(nodes.array.size())) {
        out += fmt_int_array(nodes.array[u]) + "+" +
               fmt_int_array(nodes.array[v]);
      } else {
        out += "(" + std::to_string(u) + "," + std::to_string(v) + ")";
      }
      out += " gamma=" + fmt_num(edge.array[2].number);
    }
  } else if (type == "group") {
    const bool admitted = rec.at("admitted").boolean;
    out = std::string(admitted ? "group admitted " : "group rejected ") +
          fmt_int_array(rec.at("jobs")) + " gpus=" +
          fmt_num(rec.at("gpus").number) + " mode=" +
          rec.at("mode").string + " gamma=" +
          fmt_num(rec.at("gamma").number);
    const JsonValue& reason = rec.at("reason");
    if (reason.is_string()) out += " (" + reason.string + ")";
  } else if (type == "deferred") {
    out = "deferred " + fmt_int_array(rec.at("jobs")) + " (" +
          rec.at("reason").string + ")";
  } else if (type == "round_end") {
    out = "round produced " + fmt_num(rec.at("groups").number) +
          " groups, admitted " + fmt_num(rec.at("admitted").number) +
          ", rejected " + fmt_num(rec.at("rejected").number);
  } else if (type == "placement") {
    out = "t=" + fmt_num(rec.at("t").number) + " placed " +
          fmt_int_array(rec.at("jobs")) + " on machines " +
          fmt_int_array(rec.at("machines")) + " (" +
          fmt_num(rec.at("gpus").number) + " GPUs)";
  } else if (type == "placement_skip") {
    out = "t=" + fmt_num(rec.at("t").number) + " could not place " +
          fmt_int_array(rec.at("jobs")) + " (" + rec.at("reason").string +
          ")";
  } else if (type == "preempt" || type == "restart" || type == "fault") {
    out = "t=" + fmt_num(rec.at("t").number) + " " + type + " job " +
          fmt_num(rec.at("job").number) + " (" + rec.at("reason").string +
          ")";
  } else if (type == "evict") {
    out = "t=" + fmt_num(rec.at("t").number) + " evicted job " +
          fmt_num(rec.at("job").number) + " from machine " +
          fmt_num(rec.at("machine").number) + " (" +
          rec.at("reason").string + ")";
  } else if (type == "degraded_continue") {
    out = "t=" + fmt_num(rec.at("t").number) + " degraded group " +
          fmt_int_array(rec.at("jobs")) + " continues, gamma=" +
          fmt_num(rec.at("gamma").number);
  } else if (type == "wait") {
    const JsonValue& ids = rec.at("job");
    const JsonValue& buckets = rec.at("bucket");
    std::string bucket;
    if (focus_job >= 0 && ids.is_array() && buckets.is_array() &&
        buckets.array.size() == ids.array.size()) {
      for (std::size_t i = 0; i < ids.array.size(); ++i) {
        if (ids.array[i].is_number() &&
            static_cast<std::int64_t>(ids.array[i].number) == focus_job &&
            buckets.array[i].is_string()) {
          bucket = buckets.array[i].string;
          break;
        }
      }
    }
    out = "t=" + fmt_num(rec.at("t").number) + " ";
    if (!bucket.empty()) {
      out += "left waiting (" + bucket + ")";
    } else {
      out += std::to_string(ids.is_array() ? ids.array.size() : 0) +
             " jobs left waiting " + fmt_int_array(ids);
    }
  } else if (type == "straggler") {
    out = "t=" + fmt_num(rec.at("t").number) + " job " +
          fmt_num(rec.at("job").number) + " straggler factor " +
          fmt_num(rec.at("factor").number);
  } else if (type == "exec_group") {
    out = "executor launched " +
          std::to_string(rec.at("names").array.size()) + " members over " +
          fmt_num(rec.at("slots").number) + " slots";
  } else if (type == "exec_result") {
    out = "executor window closed, realized gamma=" +
          fmt_num(rec.at("gamma").number);
  } else {
    out = type;
  }
  return out;
}

}  // namespace

std::string explain_job_text(const std::vector<DecisionRecord>& records,
                             std::int64_t job) {
  std::string out;
  std::int64_t last_round = -1;
  for (const auto& rec : records) {
    if (!rec.value.is_object() || !mentions_job(rec.value, job)) continue;
    const std::int64_t round = round_of(rec.value);
    if (out.empty()) {
      out = "job " + std::to_string(job) + " decision history\n";
    }
    if (round != last_round) {
      out += "  round " + std::to_string(round) + ":\n";
      last_round = round;
    }
    out += "    " + render_record(rec.value, job) + "\n";
  }
  return out;
}

std::string explain_job_json(const std::vector<DecisionRecord>& records,
                             std::int64_t job) {
  std::string body;
  std::int64_t last_round = -1;
  bool any = false;
  for (const auto& rec : records) {
    if (!rec.value.is_object() || !mentions_job(rec.value, job)) continue;
    const std::int64_t round = round_of(rec.value);
    if (round != last_round) {
      if (any) body += "]},";
      body += "{\"round\":" + std::to_string(round) + ",\"records\":[";
      last_round = round;
      any = true;
    } else {
      body += ',';
    }
    body += rec.raw;
  }
  if (!any) return "";
  body += "]}";
  return "{\"job\":" + std::to_string(job) + ",\"rounds\":[" + body + "]}\n";
}

std::string explain_round_text(const std::vector<DecisionRecord>& records,
                               std::int64_t round) {
  std::string out;
  for (const auto& rec : records) {
    if (!rec.value.is_object() || round_of(rec.value) != round) continue;
    if (out.empty()) {
      out = "round " + std::to_string(round) + " decisions\n";
    }
    out += "  " + render_record(rec.value, -1) + "\n";
  }
  return out;
}

std::string explain_round_json(const std::vector<DecisionRecord>& records,
                               std::int64_t round) {
  std::string body;
  bool any = false;
  for (const auto& rec : records) {
    if (!rec.value.is_object() || round_of(rec.value) != round) continue;
    if (any) body += ',';
    body += rec.raw;
    any = true;
  }
  if (!any) return "";
  return "{\"round\":" + std::to_string(round) + ",\"records\":[" + body +
         "]}\n";
}

}  // namespace muri::obs
