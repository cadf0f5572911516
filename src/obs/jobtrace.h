// Per-job causal tracing & wait-state attribution — the per-job quarter
// of src/obs (trace.h shows machines, metrics.h counts, provenance.h
// explains rounds; this one follows a single job end to end).
//
// A JobTraceLog turns lifecycle events — submit, every scheduling-round
// verdict, placement/restart, preemption, eviction, fault, degraded
// continuation, straggler window, finish — into one contiguous span
// timeline per job. Spans partition the interval [submit, finish]: each
// span's end is the next span's start, the first starts at submit and the
// last ends at finish, so bucket seconds plus run seconds sum to the
// realized JCT *by construction*. Every non-running interval is
// classified into exactly one wait bucket:
//
//   awaiting_round  in the system before any round has judged it
//   no_capacity     a round ran; demand exceeds the allocatable pool
//   lost_priority   capacity existed; higher-priority work took it
//   deferred        the scheduler explicitly deferred it (beyond the
//                   Muri candidate prefix — the "deferred" record)
//   preempted       displaced from a placement it held
//   faulted         evicted by a machine crash or failed (job fault)
//
// and every placed interval into exactly one of:
//
//   restart         inside the restart-penalty gate (placed, stalled)
//   run             placed and progressing
//   degraded        progressing in a degraded-group continuation
//
// Spans carry the DecisionLog round ids that produced (or re-confirmed)
// them, the group co-members and the scheduler's predicted γ for placed
// spans, and the straggler inflation factor — the causal chain from
// decision to realized time.
//
// The fold is the one offline per-job accounting of src/obs and tools:
// besides the timeline renderers, the per-job service latency report
// (`muri-report jobs` and the decision-stream `muri-report slo`) renders
// its rows from the same timelines, using the whole-life facts a
// timeline carries across a WAL restore (first submit and placement,
// preemptions, restarts).
//
// One fold step feeds the state machine: JobTraceLog::fold() applies a
// decision-log record (simulator run or daemon WAL) through the typed
// event methods. Live, the recorder is a DecisionLog's subscriber and
// folds each record as it commits, parsing only the types the fold reads
// (attaching never perturbs results: the obs bit-identity contract); the
// daemon adds the one fact no record carries, the HTTP-accept instant.
// Offline, build_job_traces() runs the same step over a parsed log for
// `muri-report timeline` and `muri-report jobs`. A sim_start record
// starts the fold over, so a log of several runs folds to its last run.
// The fold leans on the "wait" (per-round verdicts for every waiting job)
// and "straggler" (per-job factor changes) records, on the "gamma" field
// of interleaved placements (absent: γ 1), and on the "restart_penalty"
// field of sim_start/daemon_start (older logs fold with a zero gate). It
// reads state-tier records only (provenance.h), so a WAL folds to the
// timelines of the full log. Records without a non-negative integer job
// id are ignored.
//
// All renderers are byte-stable: a fixed-seed run produces the same
// bytes on every run and from any driving thread, with doubles in the
// shared shortest round-trip format.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/provenance.h"

namespace muri::obs {

class MetricsRegistry;

// One bucket per span; wait kinds first, placed kinds last.
enum class SpanKind : std::uint8_t {
  kAwaitingRound = 0,
  kNoCapacity,
  kLostPriority,
  kDeferred,
  kPreempted,
  kFaulted,
  kRestart,
  kRun,
  kDegraded,
};
inline constexpr int kNumSpanKinds = 9;

// Stable snake_case name ("awaiting_round", "run", ...); never null.
const char* span_kind_name(SpanKind kind) noexcept;
// Reverse lookup; false on unknown names.
bool span_kind_from_name(std::string_view name, SpanKind& out) noexcept;
// True for the six queued/displaced kinds, false for the placed three.
bool span_kind_is_wait(SpanKind kind) noexcept;

// The post-round verdict for a job left waiting: the scheduler
// explicitly deferred it, its demand exceeds the allocatable pool, or it
// simply lost the priority race. Mutually exclusive and exhaustive; the
// engine's "wait" records carry it for the fold.
SpanKind classify_wait(bool deferred_by_scheduler, int need_gpus,
                       int capacity_gpus) noexcept;

// One attributed span. Placed spans carry group/γ/straggler; wait spans
// leave them at their defaults.
struct TimelineSpan {
  SpanKind kind = SpanKind::kAwaitingRound;
  double start = 0;
  double end = 0;
  // Decision-log round ids that produced or re-confirmed this state, in
  // order. Matches explain-job/explain-round numbering.
  std::vector<std::int64_t> rounds;
  // Sorted co-members at placement, including the job itself.
  std::vector<std::int64_t> group;
  std::string mode;        // execution mode of the placement
  double gamma = 1.0;      // scheduler-predicted γ of the group
  double straggler = 1.0;  // period inflation from straggler windows

  double seconds() const noexcept { return end - start; }
};

// A job's full attributed timeline (restart-gate splitting applied).
struct JobTimeline {
  std::int64_t job = -1;
  double submit = 0;
  double finish = 0;  // finish/cancel instant; meaningless while in flight
  // Daemon HTTP-accept instant (< 0 when unknown); the accept→submit gap
  // is the admission-queue wait, reported separately from the JCT buckets
  // (the finish record's jct runs submit→finish).
  double accept = -1;
  bool finished = false;
  bool cancelled = false;
  // Restored from a WAL after a crash: spans only cover the post-resume
  // era, so the buckets==JCT invariant is not checkable.
  bool restored = false;
  // The finish record's jct (< 0 until finished).
  double reported_jct = -1;
  // Whole-life facts that, like `accept`, survive a WAL restore: the
  // first (non-restore) submit and first placement instants (< 0 when
  // unknown), displacements from a held placement (preempt and machine
  // evict; job faults excluded) and restarts of a running job in a new
  // group. The jobs report renders these; the timeline renderers do not.
  double first_submit = -1;
  double first_placed = -1;
  std::int64_t preemptions = 0;
  std::int64_t restarts = 0;
  std::array<double, kNumSpanKinds> bucket_seconds{};
  std::vector<TimelineSpan> spans;

  double jct() const noexcept { return finish - submit; }
  // Service latencies over the whole life: first submit → first placement
  // and first submit → finish (a restored job keeps its pre-crash wait).
  bool has_wait() const noexcept {
    return first_submit >= 0 && first_placed >= 0;
  }
  double wait() const noexcept { return first_placed - first_submit; }
  bool has_service_jct() const noexcept {
    return finished && first_submit >= 0;
  }
  double service_jct() const noexcept { return finish - first_submit; }
  double total_seconds() const noexcept {
    double s = 0;
    for (const double b : bucket_seconds) s += b;
    return s;
  }
};

// Checks the attribution invariant: spans contiguous (each end is the
// next start), first span starts at submit, last ends at finish, buckets
// sum to the span total, and — for finished, non-restored jobs — the
// total matches the reported JCT within float-sum tolerance. Returns ""
// when it holds, else a diagnostic.
std::string validate_timeline(const JobTimeline& t);

class JobTraceLog : public DecisionLog::Sink {
 public:
  JobTraceLog() = default;
  JobTraceLog(const JobTraceLog&) = delete;
  JobTraceLog& operator=(const JobTraceLog&) = delete;

  // Optional aggregate sink: each finished job observes its per-bucket
  // seconds into `muri_job_wait_bucket_seconds{bucket=...}` histograms.
  // Call before feeding records.
  void set_metrics(MetricsRegistry* metrics) noexcept { metrics_ = metrics; }
  // The restart-penalty gate opened at every (re)placement; the fold
  // reads it from the sim_start/daemon_start record (0 when absent).
  void set_restart_penalty(double seconds) noexcept {
    restart_penalty_ = seconds;
  }
  double restart_penalty() const noexcept { return restart_penalty_; }

  // The fold step, over one stream per recorder (the DecisionLog lock or
  // build_job_traces serializes the calls). on_record() parses and folds
  // only the record types fold() reads.
  void fold(const JsonValue& record);
  void on_record(std::string_view line) override;

  // -- Lifecycle events, the fold's primitives (all thread-safe; unknown
  // jobs are ignored) --

  // Daemon HTTP accept, ahead of the engine submit.
  void accepted(std::int64_t job, double t);
  // The job enters the scheduler's queue; opens the awaiting_round span.
  // `restored` marks WAL-recovered jobs (pre-crash time unattributable).
  void submitted(std::int64_t job, double t, bool restored = false);
  // A round judged the job and left it waiting.
  void wait_verdict(std::int64_t job, double t, std::int64_t round,
                    SpanKind bucket);
  // The job is in the round's placed plan. Re-placement with the same
  // group and mode merges into the open span (matching the executor's
  // "unchanged" test); a changed configuration — or a first placement —
  // restarts it behind a fresh gate at t + restart_penalty().
  void placed(std::int64_t job, double t, std::int64_t round,
              const std::vector<std::int64_t>& group, double gamma,
              std::string_view mode);
  // Mid-round degraded continuation: same GPUs, new configuration, old
  // gate kept. Empty mode inherits the open span's.
  void degraded_continue(std::int64_t job, double t, std::int64_t round,
                         const std::vector<std::int64_t>& group,
                         double gamma, std::string_view mode);
  // Straggler inflation factor changed while placed.
  void straggler(std::int64_t job, double t, double factor);
  // A running job regrouped (the engine's "restart" record). Counted
  // only: the placement in the new group opens the new span.
  void restarted(std::int64_t job);
  void preempted(std::int64_t job, double t, std::int64_t round);
  // Machine eviction (a preemption) or job fault (not one): back to the
  // queue under `faulted`.
  void evicted(std::int64_t job, double t, std::int64_t round);
  void faulted(std::int64_t job, double t, std::int64_t round);
  void finished(std::int64_t job, double t, double reported_jct);
  void cancelled(std::int64_t job, double t);

  // -- Snapshots (attributed, restart-gate split applied) --

  // All submitted jobs, ascending by id (a job that ended at its submit
  // instant has no spans). In-flight jobs carry their open span truncated
  // at its start (zero length) — render `timelines()` of a finished run
  // for the invariant-checked picture.
  std::vector<JobTimeline> timelines() const;
  bool timeline(std::int64_t job, JobTimeline& out) const;
  // Aggregate bucket seconds over finished jobs (cancelled excluded).
  std::array<double, kNumSpanKinds> totals(
      std::int64_t* finished_jobs = nullptr) const;

 private:
  struct RawSpan {
    SpanKind kind = SpanKind::kAwaitingRound;
    double start = 0;
    double end = 0;
    bool open = false;
    std::vector<std::int64_t> rounds;
    std::vector<std::int64_t> group;
    std::string mode;
    double gamma = 1.0;
    double straggler = 1.0;
    double gate_until = 0;  // placed spans only
  };
  struct State {
    std::int64_t job = -1;
    double accept = -1;
    double first_submit = -1;
    double first_placed = -1;
    std::int64_t preemptions = 0;
    std::int64_t restarts = 0;
    double submit = 0;
    double finish = 0;
    bool placed = false;
    bool finished = false;
    bool cancelled = false;
    bool restored = false;
    double reported_jct = -1;
    double cur_straggler = 1.0;
    std::vector<RawSpan> spans;
  };

  // Drops every job (sim_start: a new run begins in a shared log).
  // Aggregates and the metrics registry attachment survive.
  void clear();
  State* live(std::int64_t job);
  static bool traced(const State& s);
  void displace(std::int64_t job, double t, std::int64_t round,
                SpanKind kind, bool preemption);
  static void close_open(State& s, double t);
  static void open_span(State& s, RawSpan span);
  static JobTimeline attribute(const State& s);
  void finalize_locked(State& s);

  mutable std::mutex mu_;
  std::map<std::int64_t, State> jobs_;
  MetricsRegistry* metrics_ = nullptr;
  double restart_penalty_ = 0;
  std::array<double, kNumSpanKinds> totals_{};
  std::int64_t finished_jobs_ = 0;
};

// Folds a parsed decision log (simulator run or daemon WAL) into `out`
// record by record: the spans a recorder attached to the same log saw.
// `out` should be freshly constructed.
void build_job_traces(const std::vector<DecisionRecord>& records,
                      JobTraceLog& out);

// -- Byte-stable renderers --

// Human waterfall: one header line, one row per span, bucket totals.
std::string timeline_text(const JobTimeline& t);
// "job,kind,start,end,seconds,rounds,group,mode,gamma,straggler" rows;
// rounds/group joined with ';'.
std::string timeline_csv(const std::vector<JobTimeline>& ts);
// One job as a JSON object (spans, buckets, validity).
std::string timeline_json(const JobTimeline& t);
// {"jobs":[...],"finished":N,"totals":{bucket:seconds}}.
std::string timelines_json(const std::vector<JobTimeline>& ts);
// Chrome trace_event export: one pid (track) per job, complete events
// named by bucket, cat "jobtrace". Passes validate_chrome_trace.
std::string chrome_trace_json(const std::vector<JobTimeline>& ts);

// The per-job service latency report (`muri-report jobs`): one row per
// job with its state, first submit, wait (first submit → first placement),
// JCT (first submit → finish), preemptions and restarts. Text is a table
// plus wait/JCT percentiles, CSV one header plus a row per job, JSON the
// rows plus the percentile summary.
std::string jobs_report_text(const std::vector<JobTimeline>& ts);
std::string jobs_report_csv(const std::vector<JobTimeline>& ts);
std::string jobs_report_json(const std::vector<JobTimeline>& ts);

}  // namespace muri::obs
