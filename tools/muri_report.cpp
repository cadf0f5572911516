// muri-report — utilization analytics over exported Chrome traces, plus
// provenance queries over decision logs.
//
// Ingests one or more --trace-out files (from the simulator benches, the
// live executor, or examples/live_interleave) and prints per-resource
// busy/idle utilization tables and realized-vs-predicted γ per group.
// See src/obs/analysis.h for the semantics; per-job accounting comes from
// a decision stream (the jobs and timeline subcommands below).
//
//   muri-report trace.json                        # text tables
//   muri-report --format=csv a.json b.json        # one section per table
//   muri-report --format=json --out=report.json trace.json
//
// The explain subcommands answer "why" questions against a
// --decisions-out JSONL dump (see src/obs/provenance.h). A WAL works too,
// but keeps only the state tier: the output then says that the
// explanation records are absent.
//
//   muri-report explain-job 42 decisions.jsonl    # one job's full history
//   muri-report explain-round 3 --format=json decisions.jsonl
//
// The replay subcommand reconstructs scheduler state (src/recovery) from
// a decision stream — either a durable WAL (auto-detected by its magic;
// last snapshot + suffix replay) or a plain JSONL dump:
//
//   muri-report replay decisions.wal              # human summary
//   muri-report replay --format=json crash.jsonl  # ReplayState JSON
//
// The jobs subcommand renders per-job service latencies (submit → first
// scheduled → finished, plus preemption and restart counts) from the same
// inputs — typically a daemon WAL. Its rows are the jobtrace fold's
// timelines (src/obs/jobtrace.h), the same fold the timeline subcommand
// renders:
//
//   muri-report jobs daemon.wal                   # table + percentiles
//   muri-report jobs --format=csv decisions.jsonl
//
// The timeline subcommand folds a decision stream (WAL or JSONL) through
// the per-job span recorder (src/obs/jobtrace) and renders one waterfall
// per job: submit → round wait verdicts → placement/restart → preempt/
// evict/straggler/degraded windows → finish, with the wait buckets that
// sum to the realized JCT. Output is byte-stable for a fixed input.
//
//   muri-report timeline 42 daemon.wal            # one job's waterfall
//   muri-report timeline all --format=csv decisions.jsonl
//   muri-report timeline all --format=chrome --out=spans.json run.jsonl
//
// The slo subcommand renders an offline SLO violation summary — the
// batch twin of the daemon's live GET /stats gate. Input is either a
// decision stream (WAL or JSONL: wait/JCT percentiles over the jobs
// subcommand's rows) or a GET /metrics/history dump (per-series stats
// straight from the daemon's time-series store). Threshold flags turn the
// render into a verdict:
//
//   muri-report slo daemon.wal --wait-p99=60 --jct-p99=900
//   muri-report slo history.json --stall-max=1 --round-p99=0.05
//
// A torn tail (crashed writer) is reported on stderr with its byte
// offset and the valid prefix is replayed — that is the point.
//
// Exit status: 0 on success, 1 on usage/IO/parse/schema errors, 2 when
// the input parses but yields nothing to report (empty tables, an
// explain query matching no record, or a replay of zero records) — so
// CI can fail a run whose instrumentation silently vanished. The slo
// subcommand adds 3: the input rendered fine but at least one threshold
// flag was violated.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/build_info.h"
#include "common/stats.h"
#include "obs/analysis.h"
#include "obs/jobtrace.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "recovery/durable.h"
#include "recovery/replay.h"
#include "recovery/wal.h"

namespace {

enum class Format { kText, kCsv, kJson, kChrome };

enum class Mode {
  kTraceReport,
  kExplainJob,
  kExplainRound,
  kReplay,
  kJobs,
  kSlo,
  kTimeline,
};

struct Options {
  Format format = Format::kText;
  Mode mode = Mode::kTraceReport;
  std::int64_t explain_id = 0;  // job id or round number
  bool timeline_all = false;    // timeline all vs. one job
  std::string out_path;
  std::vector<std::string> traces;  // trace files, or the decisions file
  // slo subcommand thresholds; < 0 = render only, no verdict.
  double slo_wait_p99 = -1;
  double slo_jct_p99 = -1;
  double slo_round_p99 = -1;
  double slo_fsync_max = -1;
  double slo_stall_max = -1;
};

void usage(std::ostream& os) {
  os << "usage: muri-report [--format=text|csv|json] [--out=FILE] "
        "TRACE.json [TRACE.json ...]\n"
        "       muri-report explain-job ID [--format=text|json] [--out=FILE] "
        "WAL-or-DECISIONS-file\n"
        "       muri-report explain-round N [--format=text|json] [--out=FILE] "
        "WAL-or-DECISIONS-file\n"
        "       muri-report replay [--format=text|json] [--out=FILE] "
        "WAL-or-DECISIONS-file\n"
        "       muri-report jobs [--format=text|csv|json] [--out=FILE] "
        "WAL-or-DECISIONS-file\n"
        "       muri-report timeline JOB|all "
        "[--format=text|csv|json|chrome] [--out=FILE] "
        "WAL-or-DECISIONS-file\n"
        "       muri-report slo [--format=text|json] [--out=FILE]\n"
        "                   [--wait-p99=S] [--jct-p99=S] [--round-p99=S]\n"
        "                   [--fsync-max=S] [--stall-max=S]\n"
        "                   WAL-or-DECISIONS-or-HISTORY-file\n";
}

bool parse_int64(std::string_view text, std::int64_t& out) {
  if (text.empty()) return false;
  std::int64_t value = 0;
  std::size_t i = 0;
  const bool negative = text[0] == '-';
  if (negative) i = 1;
  if (i == text.size()) return false;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    value = value * 10 + (text[i] - '0');
  }
  out = negative ? -value : value;
  return true;
}

bool parse_args(int argc, char** argv, Options& opts) {
  std::vector<std::string_view> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (arg == "--version") {
      std::cout << "muri-report " << muri::build_version() << " ("
                << muri::build_git_sha() << ")\n";
      std::exit(0);
    } else if (arg.rfind("--format=", 0) == 0) {
      const std::string_view value = arg.substr(9);
      if (value == "text") {
        opts.format = Format::kText;
      } else if (value == "csv") {
        opts.format = Format::kCsv;
      } else if (value == "json") {
        opts.format = Format::kJson;
      } else if (value == "chrome") {
        opts.format = Format::kChrome;
      } else {
        std::cerr << "muri-report: unknown format '" << value << "'\n";
        return false;
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      opts.out_path = std::string(arg.substr(6));
    } else if (arg.rfind("--wait-p99=", 0) == 0) {
      opts.slo_wait_p99 = std::atof(std::string(arg.substr(11)).c_str());
    } else if (arg.rfind("--jct-p99=", 0) == 0) {
      opts.slo_jct_p99 = std::atof(std::string(arg.substr(10)).c_str());
    } else if (arg.rfind("--round-p99=", 0) == 0) {
      opts.slo_round_p99 = std::atof(std::string(arg.substr(12)).c_str());
    } else if (arg.rfind("--fsync-max=", 0) == 0) {
      opts.slo_fsync_max = std::atof(std::string(arg.substr(12)).c_str());
    } else if (arg.rfind("--stall-max=", 0) == 0) {
      opts.slo_stall_max = std::atof(std::string(arg.substr(12)).c_str());
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "muri-report: unknown flag '" << arg << "'\n";
      return false;
    } else {
      positional.emplace_back(arg);
    }
  }

  // The replay subcommand claims one positional: the WAL or JSONL file.
  if (!positional.empty() && positional[0] == "replay") {
    opts.mode = Mode::kReplay;
    positional.erase(positional.begin());
    if (opts.format == Format::kCsv) {
      std::cerr << "muri-report: replay output is text or json, not csv\n";
      return false;
    }
    if (positional.size() != 1) {
      std::cerr << "muri-report: replay takes exactly one WAL or "
                   "DECISIONS.jsonl file\n";
      return false;
    }
  }
  // The slo subcommand takes a decision stream or a history dump.
  if (!positional.empty() && positional[0] == "slo") {
    opts.mode = Mode::kSlo;
    positional.erase(positional.begin());
    if (opts.format == Format::kCsv) {
      std::cerr << "muri-report: slo output is text or json, not csv\n";
      return false;
    }
    if (positional.size() != 1) {
      std::cerr << "muri-report: slo takes exactly one WAL, "
                   "DECISIONS.jsonl, or metrics-history file\n";
      return false;
    }
  }
  // The timeline subcommand claims a job id (or "all") plus the input.
  if (!positional.empty() && positional[0] == "timeline") {
    opts.mode = Mode::kTimeline;
    if (positional.size() < 2) {
      std::cerr << "muri-report: timeline needs a job id or 'all'\n";
      return false;
    }
    if (positional[1] == "all") {
      opts.timeline_all = true;
    } else if (!parse_int64(positional[1], opts.explain_id)) {
      std::cerr << "muri-report: timeline needs a job id or 'all'\n";
      return false;
    }
    positional.erase(positional.begin(), positional.begin() + 2);
    if (positional.size() != 1) {
      std::cerr << "muri-report: timeline takes exactly one WAL or "
                   "DECISIONS.jsonl file\n";
      return false;
    }
  }
  // The jobs subcommand has the replay input contract (WAL or JSONL).
  if (!positional.empty() && positional[0] == "jobs") {
    opts.mode = Mode::kJobs;
    positional.erase(positional.begin());
    if (positional.size() != 1) {
      std::cerr << "muri-report: jobs takes exactly one WAL or "
                   "DECISIONS.jsonl file\n";
      return false;
    }
  }
  // An explain subcommand claims the first two positionals; everything
  // after is input files (exactly one decisions dump).
  if (!positional.empty() &&
      (positional[0] == "explain-job" || positional[0] == "explain-round")) {
    opts.mode = positional[0] == "explain-job" ? Mode::kExplainJob
                                               : Mode::kExplainRound;
    if (positional.size() < 2 || !parse_int64(positional[1], opts.explain_id)) {
      std::cerr << "muri-report: " << positional[0]
                << " needs an integer argument\n";
      return false;
    }
    positional.erase(positional.begin(), positional.begin() + 2);
    if (opts.format == Format::kCsv) {
      std::cerr << "muri-report: explain output is text or json, not csv\n";
      return false;
    }
    if (positional.size() != 1) {
      std::cerr << "muri-report: " << (opts.mode == Mode::kExplainJob
                                           ? "explain-job"
                                           : "explain-round")
                << " takes exactly one DECISIONS.jsonl file\n";
      return false;
    }
  }
  for (const std::string_view p : positional) opts.traces.emplace_back(p);
  if (opts.traces.empty()) {
    usage(std::cerr);
    return false;
  }
  if (opts.format == Format::kChrome && opts.mode != Mode::kTimeline) {
    std::cerr << "muri-report: --format=chrome is timeline-only\n";
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// Prints `output` to --out or stdout; false on I/O failure.
bool emit_output(const Options& opts, const std::string& output) {
  if (!opts.out_path.empty()) {
    std::ofstream out(opts.out_path, std::ios::binary);
    if (!out) {
      std::cerr << "muri-report: cannot write " << opts.out_path << '\n';
      return false;
    }
    out << output;
    return true;
  }
  std::cout << output;
  return true;
}

// Defined below, with the jobs and timeline readers.
int read_decision_stream(const std::string& path,
                         std::vector<muri::obs::DecisionRecord>& records);

int run_explain(const Options& opts) {
  const std::string& path = opts.traces.front();
  std::string text;
  if (!read_file(path, text)) {
    std::cerr << "muri-report: cannot read " << path << '\n';
    return 1;
  }
  // A WAL keeps the state tier only; the explanation says so.
  const bool from_wal = muri::recovery::looks_like_wal(text);
  std::vector<muri::obs::DecisionRecord> records;
  if (from_wal) {
    if (const int rc = read_decision_stream(path, records); rc != 0) {
      return rc;
    }
  } else {
    std::string error;
    // Validate first: a malformed dump should fail loudly, not produce a
    // partial explanation.
    if (!muri::obs::validate_decision_log(text, &error)) {
      std::cerr << "muri-report: " << path << ": " << error << '\n';
      return 1;
    }
    if (!muri::obs::parse_decision_log(text, records, &error)) {
      std::cerr << "muri-report: " << path << ": " << error << '\n';
      return 1;
    }
  }

  const std::int64_t id = opts.explain_id;
  std::string output;
  if (opts.mode == Mode::kExplainJob) {
    output = opts.format == Format::kJson
                 ? muri::obs::explain_job_json(records, id, from_wal)
                 : muri::obs::explain_job_text(records, id, from_wal);
  } else {
    output = opts.format == Format::kJson
                 ? muri::obs::explain_round_json(records, id, from_wal)
                 : muri::obs::explain_round_text(records, id, from_wal);
  }
  if (output.empty()) {
    std::cerr << "muri-report: no record of "
              << (opts.mode == Mode::kExplainJob ? "job " : "round ")
              << opts.explain_id << " in " << path << '\n';
    return 2;
  }
  return emit_output(opts, output) ? 0 : 1;
}

int run_replay(const Options& opts) {
  const std::string& path = opts.traces.front();
  std::string text;
  if (!read_file(path, text)) {
    std::cerr << "muri-report: cannot read " << path << '\n';
    return 1;
  }

  muri::recovery::ReplayState state;
  std::string error;
  if (muri::recovery::looks_like_wal(text)) {
    muri::recovery::RecoverResult recovered;
    if (!muri::recovery::recover_wal(path, recovered, &error)) {
      std::cerr << "muri-report: " << path << ": " << error << '\n';
      return 1;
    }
    if (recovered.torn) {
      std::cerr << "muri-report: " << path
                << ": warning: torn tail ignored (" << recovered.torn_reason
                << ")\n";
    }
    if (recovered.records_on_disk == 0) {
      std::cerr << "muri-report: no records in " << path << '\n';
      return 2;
    }
    if (recovered.used_snapshot) {
      std::cerr << "muri-report: recovered from snapshot + "
                << recovered.replayed_records << "-record suffix\n";
    }
    state = recovered.state;
  } else {
    muri::recovery::ReplayEngine engine;
    std::string tail_warning;
    if (!engine.replay(text, &error, &tail_warning)) {
      std::cerr << "muri-report: " << path << ": " << error << '\n';
      return 1;
    }
    if (!tail_warning.empty()) {
      std::cerr << "muri-report: " << path << ": warning: " << tail_warning
                << '\n';
    }
    if (engine.state().records == 0) {
      std::cerr << "muri-report: no records in " << path << '\n';
      return 2;
    }
    state = engine.state();
  }

  const std::string output = opts.format == Format::kJson
                                 ? muri::recovery::state_json(state)
                                 : muri::recovery::state_text(state);
  return emit_output(opts, output) ? 0 : 1;
}

// Reads a decision stream — a durable WAL (re-joined into JSONL; record
// frames only, snapshots carry folded state, not job events) or a plain
// JSONL dump — into parsed records. Returns 0, or 1 after reporting an
// IO/parse error on stderr; torn tails warn and keep the valid prefix.
int read_decision_stream(const std::string& path,
                         std::vector<muri::obs::DecisionRecord>& records) {
  std::string text;
  if (!read_file(path, text)) {
    std::cerr << "muri-report: cannot read " << path << '\n';
    return 1;
  }
  if (muri::recovery::looks_like_wal(text)) {
    muri::recovery::WalReadResult decoded;
    std::string error;
    if (!muri::recovery::read_wal_file(path, decoded, &error)) {
      std::cerr << "muri-report: " << path << ": " << error << '\n';
      return 1;
    }
    if (decoded.torn) {
      std::cerr << "muri-report: " << path
                << ": warning: torn tail ignored (" << decoded.torn_reason
                << ")\n";
    }
    text.clear();
    for (const muri::recovery::WalFrame& frame : decoded.frames) {
      if (frame.kind != muri::recovery::FrameKind::kRecord) continue;
      text += frame.payload;
      text += '\n';
    }
  }
  std::string error;
  std::string tail_warning;
  if (!muri::obs::parse_decision_log(text, records, &error, &tail_warning)) {
    std::cerr << "muri-report: " << path << ": " << error << '\n';
    return 1;
  }
  if (!tail_warning.empty()) {
    std::cerr << "muri-report: " << path << ": warning: " << tail_warning
              << '\n';
  }
  return 0;
}

// The jobs report's rows: the jobtrace fold of a decision stream, one
// timeline per job ascending by id. Returns 0, 1 after an IO/parse error,
// or 2 when the stream holds no job.
int read_job_rows(const std::string& path,
                  std::vector<muri::obs::JobTimeline>& rows) {
  std::vector<muri::obs::DecisionRecord> records;
  if (const int rc = read_decision_stream(path, records); rc != 0) {
    return rc;
  }
  muri::obs::JobTraceLog log;
  muri::obs::build_job_traces(records, log);
  rows = log.timelines();
  if (rows.empty()) {
    std::cerr << "muri-report: no job records in " << path << '\n';
    return 2;
  }
  return 0;
}

int run_jobs(const Options& opts) {
  std::vector<muri::obs::JobTimeline> rows;
  if (const int rc = read_job_rows(opts.traces.front(), rows); rc != 0) {
    return rc;
  }
  std::string output;
  switch (opts.format) {
    case Format::kText:
      output = muri::obs::jobs_report_text(rows);
      break;
    case Format::kCsv:
      output = muri::obs::jobs_report_csv(rows);
      break;
    case Format::kJson:
      output = muri::obs::jobs_report_json(rows);
      break;
    case Format::kChrome:
      break;  // rejected in parse_args
  }
  return emit_output(opts, output) ? 0 : 1;
}

int run_timeline(const Options& opts) {
  const std::string& path = opts.traces.front();
  std::vector<muri::obs::DecisionRecord> records;
  if (const int rc = read_decision_stream(path, records); rc != 0) {
    return rc;
  }
  muri::obs::JobTraceLog log;
  muri::obs::build_job_traces(records, log);
  std::vector<muri::obs::JobTimeline> timelines;
  if (opts.timeline_all) {
    timelines = log.timelines();
  } else {
    muri::obs::JobTimeline t;
    if (log.timeline(opts.explain_id, t)) timelines.push_back(std::move(t));
  }
  if (timelines.empty()) {
    if (opts.timeline_all) {
      std::cerr << "muri-report: no job records in " << path << '\n';
    } else {
      std::cerr << "muri-report: no record of job " << opts.explain_id
                << " in " << path << '\n';
    }
    return 2;
  }
  // Self-check: every finished, fully-observed timeline must satisfy the
  // attribution invariant (spans contiguous, buckets sum to the reported
  // JCT) — a violation means the log and the recorder disagree.
  for (const muri::obs::JobTimeline& t : timelines) {
    if (!t.finished || t.restored) continue;
    const std::string invariant = muri::obs::validate_timeline(t);
    if (!invariant.empty()) {
      std::cerr << "muri-report: job " << t.job
                << ": timeline invariant violated: " << invariant << '\n';
      return 1;
    }
  }
  std::string output;
  switch (opts.format) {
    case Format::kText:
      for (const muri::obs::JobTimeline& t : timelines) {
        if (!output.empty()) output += '\n';
        output += muri::obs::timeline_text(t);
      }
      break;
    case Format::kCsv:
      output = muri::obs::timeline_csv(timelines);
      break;
    case Format::kJson:
      output = opts.timeline_all
                   ? muri::obs::timelines_json(timelines)
                   : muri::obs::timeline_json(timelines.front());
      output += '\n';
      break;
    case Format::kChrome:
      output = muri::obs::chrome_trace_json(timelines);
      output += '\n';
      break;
  }
  return emit_output(opts, output) ? 0 : 1;
}

// One line of the SLO verdict table. threshold < 0 = render-only.
struct SloLine {
  std::string name;
  const char* reduce = "p99";
  double threshold = -1;
  double value = 0;
  std::int64_t samples = 0;
  bool violated = false;
};

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string slo_render(const std::string& source, const Options& opts,
                       const std::vector<SloLine>& lines) {
  int violated = 0;
  for (const SloLine& l : lines) violated += l.violated ? 1 : 0;
  std::string out;
  if (opts.format == Format::kJson) {
    out += "{\"source\":\"";
    muri::obs::append_json_escaped(out, source);
    out += "\",\"targets\":[";
    bool first = true;
    for (const SloLine& l : lines) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + l.name + "\",\"reduce\":\"" + l.reduce +
             "\",\"samples\":" + std::to_string(l.samples) +
             ",\"value\":" + fmt_g(l.value);
      if (l.threshold >= 0) {
        out += ",\"threshold\":" + fmt_g(l.threshold) +
               ",\"violated\":" + (l.violated ? "true" : "false");
      }
      out += '}';
    }
    out += "],\"violated\":" + std::to_string(violated) + "}\n";
    return out;
  }
  out += "slo report (" + source + ")\n";
  for (const SloLine& l : lines) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-16s %-4s %10.6g  samples %lld",
                  l.name.c_str(), l.reduce, l.value,
                  static_cast<long long>(l.samples));
    out += buf;
    if (l.threshold >= 0) {
      std::snprintf(buf, sizeof(buf), "  [<= %.6g: %s]", l.threshold,
                    l.violated ? "VIOLATED" : "ok");
      out += buf;
    }
    out += '\n';
  }
  out += "verdict: ";
  out += violated == 0 ? "ok" : std::to_string(violated) + " violated";
  out += '\n';
  return out;
}

// slo over a GET /metrics/history dump: per-series stats are already in
// the JSON; map the daemon's SLO series names onto the threshold flags.
int run_slo_history(const Options& opts, const muri::obs::JsonValue& root) {
  const muri::obs::JsonValue& series = root.at("series");
  if (series.object.empty()) {
    std::cerr << "muri-report: no series in " << opts.traces.front() << '\n';
    return 2;
  }
  std::vector<SloLine> lines;
  for (const auto& [name, s] : series.object) {
    SloLine l;
    l.name = name;
    l.samples = static_cast<std::int64_t>(s.at("count").number);
    if (name == "queue_wait_s" || name == "jct_s" ||
        name == "round_latency_s") {
      l.reduce = "p99";
      l.value = s.at("p99").number;
    } else {
      l.reduce = "max";
      l.value = s.at("max").number;
    }
    if (name == "queue_wait_s") l.threshold = opts.slo_wait_p99;
    if (name == "jct_s") l.threshold = opts.slo_jct_p99;
    if (name == "round_latency_s") l.threshold = opts.slo_round_p99;
    if (name == "wal_fsync_s") l.threshold = opts.slo_fsync_max;
    if (name == "loop_stall_s") l.threshold = opts.slo_stall_max;
    l.violated =
        l.threshold >= 0 && l.samples > 0 && l.value > l.threshold;
    lines.push_back(std::move(l));
  }
  const std::string output = slo_render("metrics history", opts, lines);
  if (!emit_output(opts, output)) return 1;
  for (const SloLine& l : lines) {
    if (l.violated) return 3;
  }
  return 0;
}

// slo over a decision stream: wait/JCT percentiles over the jobs report's
// rows (round latency / fsync / stall are live-plane quantities — a WAL
// does not carry them; use a history dump for those).
int run_slo(const Options& opts) {
  const std::string& path = opts.traces.front();
  // A /metrics/history dump is one JSON object with a "series" map.
  {
    std::string text;
    if (!read_file(path, text)) {
      std::cerr << "muri-report: cannot read " << path << '\n';
      return 1;
    }
    muri::obs::JsonValue root;
    if (muri::obs::parse_json(text, root) && root.at("series").is_object()) {
      return run_slo_history(opts, root);
    }
  }
  std::vector<muri::obs::JobTimeline> rows;
  if (const int rc = read_job_rows(path, rows); rc != 0) return rc;
  std::vector<double> waits;
  std::vector<double> jcts;
  for (const muri::obs::JobTimeline& row : rows) {
    if (row.has_wait()) waits.push_back(row.wait());
    if (row.has_service_jct()) jcts.push_back(row.service_jct());
  }
  std::vector<SloLine> lines;
  {
    SloLine l;
    l.name = "queue_wait_s";
    l.samples = static_cast<std::int64_t>(waits.size());
    l.value = waits.empty() ? 0 : muri::percentile(waits, 99);
    l.threshold = opts.slo_wait_p99;
    l.violated = l.threshold >= 0 && l.samples > 0 && l.value > l.threshold;
    lines.push_back(std::move(l));
  }
  {
    SloLine l;
    l.name = "jct_s";
    l.samples = static_cast<std::int64_t>(jcts.size());
    l.value = jcts.empty() ? 0 : muri::percentile(jcts, 99);
    l.threshold = opts.slo_jct_p99;
    l.violated = l.threshold >= 0 && l.samples > 0 && l.value > l.threshold;
    lines.push_back(std::move(l));
  }
  const std::string output = slo_render("decision stream", opts, lines);
  if (!emit_output(opts, output)) return 1;
  for (const SloLine& l : lines) {
    if (l.violated) return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 1;
  if (opts.mode == Mode::kReplay) return run_replay(opts);
  if (opts.mode == Mode::kJobs) return run_jobs(opts);
  if (opts.mode == Mode::kSlo) return run_slo(opts);
  if (opts.mode == Mode::kTimeline) return run_timeline(opts);
  if (opts.mode != Mode::kTraceReport) return run_explain(opts);

  std::string output;
  bool any_content = false;
  bool first = true;

  if (opts.format == Format::kJson) output += "{\"traces\":[";

  for (const std::string& path : opts.traces) {
    std::string text;
    if (!read_file(path, text)) {
      std::cerr << "muri-report: cannot read " << path << '\n';
      return 1;
    }
    muri::obs::JsonValue root;
    std::string error;
    if (!muri::obs::parse_json(text, root, &error)) {
      std::cerr << "muri-report: " << path << ": parse error: " << error
                << '\n';
      return 1;
    }
    muri::obs::UtilizationReport report;
    if (!muri::obs::analyze_trace(root, report, &error)) {
      std::cerr << "muri-report: " << path << ": " << error << '\n';
      return 1;
    }
    any_content = any_content || !report.empty();

    switch (opts.format) {
      case Format::kText:
        if (!first) output += '\n';
        output += "== " + path + " ==\n";
        output += muri::obs::report_text(report);
        break;
      case Format::kCsv:
        // Sections already carry their own headers; a file marker line
        // keeps multi-trace output splittable.
        if (!first) output += '\n';
        output += "file," + path + "\n";
        output += muri::obs::report_csv(report);
        break;
      case Format::kJson:
        if (!first) output += ',';
        output += "{\"file\":\"";
        muri::obs::append_json_escaped(output, path);
        output += "\",\"report\":";
        output += muri::obs::report_json(report);
        output += '}';
        break;
      case Format::kChrome:
        break;  // rejected in parse_args
    }
    first = false;
  }

  if (opts.format == Format::kJson) output += "]}\n";

  if (!emit_output(opts, output)) return 1;

  if (!any_content) {
    std::cerr << "muri-report: no spans or groups found in "
              << (opts.traces.size() == 1 ? "the trace" : "any trace")
              << " (empty report)\n";
    return 2;
  }
  return 0;
}
