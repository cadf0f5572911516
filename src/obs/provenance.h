// Decision provenance — the "why" quarter of src/obs (trace.h shows what
// happened, metrics.h counts it, analysis.h audits it, this explains it).
//
// A DecisionLog is an append-only, structured record of every choice a
// scheduling round made: the priority scores that ordered the queue, the
// per-bucket candidate sets, every γ edge weight offered to the matching
// graph, each Blossom round's matched/merged/unmatched nodes, the winning
// groups with predicted γ, and the simulator's placement outcomes
// (descending-GPU slot chosen, displaced victims, evictions with cause).
// Export is JSONL: one self-contained JSON object per line, so the log
// streams, greps, and diffs like a log file while staying machine-
// parseable by the src/obs/json parser.
//
// Design constraints (DESIGN.md "Decision provenance"):
//
//  - Null is free: a null DecisionLog* in MuriOptions / SimOptions /
//    ExecOptions skips every record call, and attaching a log never
//    perturbs the decisions it records — plans and SimResult are
//    bit-identical either way.
//  - Byte-stable: records carry no wall-clock timestamps — only round
//    ids, simulated time, and the deterministic doubles already computed
//    by the scheduler — and doubles print in the same shortest-round-trip
//    format the trace exporter uses. A fixed-seed run dumps a
//    byte-identical log every time, from any driving thread.
//  - Cross-linked: every record carries the round id that the tracer
//    stamps on its scheduler-track round spans ("round" arg), so a
//    Perfetto timeline and a provenance log index into each other.
//
// Record catalog (field "type"; every record also carries integer
// "round"). Each type belongs to one tier, tagged below and fixed by
// kExplanationRecordTypes: [state] records are what recovery, resume,
// replay and the jobtrace fold read; [explain] records say why a round
// decided what it did. The DecisionLog keeps both tiers; the durable WAL
// (src/recovery) keeps the state tier only.
//
//   sim_start     [state] t, jobs, machines, gpus, interval
//                 [, restart_penalty]                  (run lifecycle)
//   arrival       [state] t, job, gpus
//   round_start   [state] scheduler, policy, queue, capacity
//   priority      [explain] policy, job:[ids], score:[doubles]
//                 (queue order)
//   bucket        [explain] gpus, jobs:[ids]           (candidate set)
//   match_round   [explain] gpus, stage, nodes:[[ids]],
//                 edges:[[u,v,gamma]], matched:[[u,v]], unmatched:[node],
//                 fallback
//   group         [explain] jobs:[ids], gpus, mode, gamma, priority,
//                 admitted, reason (rejections only), budget_left
//   deferred      [explain] jobs:[ids], reason         (beyond the prefix)
//   round_end     [state] groups, admitted, rejected, contended
//   placement     [state] t, jobs:[ids], gpus, mode, machines:[ids], owner
//                 [, gamma]   (interleaved groups: the γ the plan priced)
//   placement_skip [explain] t, jobs:[ids], gpus, reason
//                 [, available_gpus] (no_capacity only: GPUs in the
//                 allocatable pool, i.e. on machines neither down nor on
//                 probation)
//   preempt       [state] t, job, reason
//   restart       [state] t, job, reason
//   evict         [state] t, job, machine, reason
//   fault         [state] t, job, reason
//   machine_down  [state] t, machine                   (fault domains)
//   machine_up    [state] t, machine
//   degraded_continue [state] t, jobs:[ids], gamma [, mode]
//   finish        [state] t, job, jct, queueing, running,
//                 restart_overhead, preemptions
//                 (queueing counts from engine admission)
//   sim_end       [state] t, makespan, finished, unfinished
//   exec_group    [state] names:[strings], slots, offsets, mode
//                 (live executor)
//   exec_result   [state] names:[strings], gamma, killed
//   job_submit    [state] t, job, model, gpus, iterations [, name]
//                 (service daemon)
//   job_cancel    [state] t, job, reason
//   job_progress  [state] t, job, done    (graceful-shutdown checkpoint)
//   job_restore   [state] t, job, done    (WAL recovery re-admission)
//   daemon_start  [state] t, machines, gpus [, resumed, restart_penalty]
//   daemon_stop   [state] t [, reason]
//   wait          [state] t, job:[ids], bucket:[strings]  (per-job
//                 tracing; one post-round verdict per waiting job, ids
//                 ascending)
//   straggler     [state] t, job, factor  (period-inflation change)
//
// Edge/matched indices address the sibling "nodes" arrays of the same
// record; everything else is in job ids.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace muri::obs {

// Appends `v` to `out` in the byte-stable JSON number format shared by
// the obs exporters: integers plain, everything else shortest
// round-trippable %.17g.
void append_json_double(std::string& out, double v);

// Appends `v` to `out` as a plain decimal integer (the bytes of %lld).
void append_json_integer(std::string& out, std::int64_t v);

// Appends `s` to `out` escaped for the inside of a JSON string literal
// (no surrounding quotes): `"` and `\` backslashed, newline and tab as
// \n and \t, every other control byte as \u00XX. The repo's one JSON
// string escaper: the DecisionLog, trace, metrics, report and daemon
// writers all use it.
void append_json_escaped(std::string& out, std::string_view s);

// The explanation tier of the record catalog above; every other type,
// including any type not in the catalog, is state. One fixed table, no
// option: a WAL holds exactly the state-tier subsequence of its log.
inline constexpr std::string_view kExplanationRecordTypes[] = {
    "priority", "bucket", "match_round", "group", "deferred",
    "placement_skip"};

constexpr bool is_explanation_record(std::string_view type) {
  for (const std::string_view t : kExplanationRecordTypes) {
    if (t == type) return true;
  }
  return false;
}

// The type of a committed record line, read from the head every
// DecisionLog::entry() line opens with ({"type":"<type>",...) without
// parsing the line; "" for a line without that head.
constexpr std::string_view record_type(std::string_view line) {
  constexpr std::string_view kHead = "{\"type\":\"";
  if (line.substr(0, kHead.size()) != kHead) return {};
  const std::string_view rest = line.substr(kHead.size());
  const std::size_t end = rest.find('"');
  return end == std::string_view::npos ? std::string_view{}
                                       : rest.substr(0, end);
}

class DecisionLog {
 public:
  // One record under construction. Obtained from DecisionLog::entry();
  // commits to the log when it goes out of scope (end of the chained
  // full expression, in the idiomatic use). Keys must be JSON-safe
  // literals; string values are escaped.
  class Entry {
   public:
    ~Entry();
    Entry(Entry&& other) noexcept;
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;
    Entry& operator=(Entry&&) = delete;

    Entry& num(const char* key, double v);
    Entry& integer(const char* key, std::int64_t v);
    Entry& str(const char* key, std::string_view v);
    // Arrays of integers (machine lists, node indices, job ids).
    Entry& ints(const char* key, const std::vector<int>& v);
    Entry& ids(const char* key, const std::vector<std::int64_t>& v);
    Entry& nums(const char* key, const std::vector<double>& v);
    Entry& strs(const char* key, const std::vector<std::string>& v);
    // Pre-serialized JSON value (nested arrays built by the caller).
    Entry& raw(const char* key, std::string_view json);

   private:
    friend class DecisionLog;
    Entry(DecisionLog* log, std::string line) noexcept
        : log_(log), line_(std::move(line)) {}

    DecisionLog* log_;
    std::string line_;
  };

  // A tap on the stream: every committed record line is forwarded —
  // without the trailing newline — under the same lock that orders the
  // in-memory log, so a sink observes records in exactly jsonl() order.
  // on_record() runs inside Entry's destructor; it must not throw and
  // must not call back into this DecisionLog. Two slots take one each:
  // the durable tap (src/recovery) and a subscriber (obs/jobtrace).
  class Sink {
   public:
    virtual ~Sink() = default;
    virtual void on_record(std::string_view line) = 0;
  };

  DecisionLog() = default;

  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

  // Round bookkeeping. A scheduler calls begin_round() once at the top of
  // each schedule() invocation; everyone else (the simulator's placement
  // and preemption records, the explain queries) reads current_round().
  // Ids are 1-based and never reused; a fresh log starts at round 1.
  std::int64_t begin_round() noexcept {
    return round_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::int64_t current_round() const noexcept {
    return round_.load(std::memory_order_relaxed);
  }
  // Continues round numbering from a prior log (daemon restart: the
  // recovered WAL's highest round becomes the floor, so resumed rounds
  // never reuse ids). Never moves the counter backwards.
  void resume_round(std::int64_t round) noexcept {
    std::int64_t cur = round_.load(std::memory_order_relaxed);
    while (cur < round &&
           !round_.compare_exchange_weak(cur, round,
                                         std::memory_order_relaxed)) {
    }
  }

  // Starts a record of `type`, stamped with current_round(). Records are
  // appended in commit order; concurrent writers are safe but the
  // schedulers/simulator serialize their rounds, so logs from fixed-seed
  // runs are byte-identical.
  Entry entry(std::string_view type);

  // Committed record count.
  std::int64_t records() const;

  // The full JSONL dump (one '\n'-terminated line per record).
  std::string jsonl() const;

  // Writes jsonl() to `path`; false on I/O failure.
  bool write_jsonl(const std::string& path) const;

  // Drops all records and resets the round counter. The sink and the
  // subscriber stay attached (they are transport, not content).
  void clear();

  // Attaches (or, with null, detaches) the durable tap. The sink must
  // outlive the log or be detached first.
  void set_sink(Sink* sink);
  // The second slot, same contract; it sees each record after the tap.
  void set_subscriber(Sink* subscriber);

 private:
  friend class Entry;
  void append(std::string line);

  std::atomic<std::int64_t> round_{0};
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
  Sink* sink_ = nullptr;
  Sink* subscriber_ = nullptr;
};

// One parsed JSONL record: the JSON value plus the original line bytes
// (so queries can re-emit records verbatim, byte-stably).
struct DecisionRecord {
  JsonValue value;
  std::string raw;
};

// Parses a decisions JSONL dump (blank lines ignored). On failure returns
// false with a 1-based line number and message in `error`.
//
// A non-null `tail_warning` opts into torn-tail tolerance: a line that
// fails to parse *and* has nothing but blank lines after it — the
// signature of a crash or disk-full mid-append — is dropped instead of
// failing the whole file, and `tail_warning` receives a diagnostic with
// the byte offset where the valid prefix ends. `tail_warning` is cleared
// when the dump is clean. Errors anywhere before the final line still
// fail: only a torn tail is survivable, corruption in the middle is not.
bool parse_decision_log(std::string_view jsonl,
                        std::vector<DecisionRecord>& out,
                        std::string* error = nullptr,
                        std::string* tail_warning = nullptr);

// Schema check for a decisions JSONL dump: every record must be an object
// carrying a string "type" and a non-negative integer "round", and the
// per-type required fields of the catalog above must be present with the
// right JSON types. Returns false with a diagnostic in `error`.
// `tail_warning` has the parse_decision_log contract, extended to schema
// checks: a final record that parses but fails the schema is also
// reported as a warning (with its byte offset) rather than an error.
bool validate_decision_log(std::string_view jsonl,
                           std::string* error = nullptr,
                           std::string* tail_warning = nullptr);

// The explain queries below run over a full log or over a WAL, which
// keeps the state tier only. With `from_wal`, or when the queried scope
// (the whole log for a job, the round for a round) has a round_start but
// no explanation record, the text output says "explanation records are
// not persisted in the WAL" and the JSON output carries
// "explanation":"absent", so a thin answer is never silently thin.

// Query: reconstructs one job's full decision history — the rounds it was
// queued with its priority score, the candidate pairings considered with
// their γ edge weights (matched partner marked, rejected alternatives
// listed), the groups it landed in with predicted γ and admission
// outcome, and every placement / preemption / eviction / fault with its
// cause. Returns "" when the log holds no record mentioning the job.
std::string explain_job_text(const std::vector<DecisionRecord>& records,
                             std::int64_t job, bool from_wal = false);
// JSON form: {"job":N[,"explanation":"absent"],"rounds":[{"round":R,
// "records":[...]}]} with the records embedded verbatim.
std::string explain_job_json(const std::vector<DecisionRecord>& records,
                             std::int64_t job, bool from_wal = false);

// Query: renders everything one round decided — queue and priorities,
// candidate buckets, each matching round's nodes/edges/merges, the groups
// formed or rejected, and the resulting placements and preemptions.
// Returns "" when the log holds no record for the round.
std::string explain_round_text(const std::vector<DecisionRecord>& records,
                               std::int64_t round, bool from_wal = false);
// JSON form: {"round":N[,"explanation":"absent"],"records":[...]} with
// records embedded verbatim.
std::string explain_round_json(const std::vector<DecisionRecord>& records,
                               std::int64_t round, bool from_wal = false);

}  // namespace muri::obs
