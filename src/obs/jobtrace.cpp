#include "obs/jobtrace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "common/stats.h"
#include "obs/metrics.h"

namespace muri::obs {

namespace {

constexpr const char* kSpanKindNames[kNumSpanKinds] = {
    "awaiting_round", "no_capacity", "lost_priority", "deferred",
    "preempted",      "faulted",     "restart",       "run",
    "degraded",
};

// Relative tolerance for float-sum comparisons: spans are contiguous by
// construction (bit-equal endpoints), but summing their lengths is not
// the same float expression as finish - submit.
bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a),
                                              std::fabs(b)});
}

void append_num(std::string& out, double v) { append_json_double(out, v); }

void append_int(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void append_id_array(std::string& out, const std::vector<std::int64_t>& v) {
  out += '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    append_int(out, v[i]);
  }
  out += ']';
}

std::vector<double> wait_bucket_bounds() {
  return {1, 10, 60, 300, 900, 3600, 14400, 86400};
}

double num_field(const JsonValue& v, const char* key, double fallback) {
  const JsonValue& f = v.at(key);
  return f.is_number() ? f.number : fallback;
}

std::string str_field(const JsonValue& v, const char* key) {
  const JsonValue& f = v.at(key);
  return f.is_string() ? f.string : std::string();
}

// A job id: a non-negative integer (exact in a double); -1 otherwise.
std::int64_t job_id(const JsonValue& v) {
  const bool ok = v.is_number() && v.number >= 0 && v.number <= 9.0e15 &&
                  v.number == std::floor(v.number);
  return ok ? static_cast<std::int64_t>(v.number) : -1;
}

bool id_array_field(const JsonValue& v, const char* key,
                    std::vector<std::int64_t>& out) {
  const JsonValue& f = v.at(key);
  if (!f.is_array()) return false;
  out.clear();
  out.reserve(f.array.size());
  for (const JsonValue& e : f.array) {
    out.push_back(job_id(e));
    if (out.back() < 0) return false;
  }
  return true;
}

}  // namespace

const char* span_kind_name(SpanKind kind) noexcept {
  const auto i = static_cast<size_t>(kind);
  return i < static_cast<size_t>(kNumSpanKinds) ? kSpanKindNames[i]
                                                : "unknown";
}

bool span_kind_from_name(std::string_view name, SpanKind& out) noexcept {
  for (int i = 0; i < kNumSpanKinds; ++i) {
    if (name == kSpanKindNames[i]) {
      out = static_cast<SpanKind>(i);
      return true;
    }
  }
  return false;
}

bool span_kind_is_wait(SpanKind kind) noexcept {
  return kind < SpanKind::kRestart;
}

SpanKind classify_wait(bool deferred_by_scheduler, int need_gpus,
                       int capacity_gpus) noexcept {
  if (deferred_by_scheduler) return SpanKind::kDeferred;
  if (need_gpus > capacity_gpus) return SpanKind::kNoCapacity;
  return SpanKind::kLostPriority;
}

// -- JobTraceLog ------------------------------------------------------

JobTraceLog::State* JobTraceLog::live(std::int64_t job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return nullptr;
  State& s = it->second;
  if (s.finished || s.cancelled || s.spans.empty()) return nullptr;
  return &s;
}

bool JobTraceLog::traced(const State& s) {
  // Submitted: a job ended at its submit instant has no spans left, but a
  // job only accepted (never submitted) has none yet and is not traced.
  return !s.spans.empty() || s.finished || s.cancelled;
}

void JobTraceLog::close_open(State& s, double t) {
  if (s.spans.empty() || !s.spans.back().open) return;
  RawSpan& b = s.spans.back();
  b.end = t;
  b.open = false;
  // Zero-length spans are transition noise: several records at one
  // instant (an arrival judged by a round at the same t, a displacement
  // followed by a re-placement) open and close a state that took no time.
  if (b.end <= b.start) s.spans.pop_back();
}

void JobTraceLog::open_span(State& s, RawSpan span) {
  span.open = true;
  s.spans.push_back(std::move(span));
}

void JobTraceLog::accepted(std::int64_t job, double t) {
  std::lock_guard<std::mutex> lock(mu_);
  State& s = jobs_[job];
  if (s.job < 0) s.job = job;
  if (s.accept < 0) s.accept = t;
}

void JobTraceLog::submitted(std::int64_t job, double t, bool restored) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = jobs_.try_emplace(job);
  State& s = it->second;
  if (!inserted && !s.spans.empty()) {
    // Re-submission of a live trace only happens on WAL restore; the
    // pre-crash spans are unattributable, so the trace starts over and
    // only the whole-life facts carry across.
    State fresh;
    fresh.accept = s.accept;
    fresh.first_submit = s.first_submit;
    fresh.first_placed = s.first_placed;
    fresh.preemptions = s.preemptions;
    fresh.restarts = s.restarts;
    s = std::move(fresh);
  }
  s.job = job;
  s.submit = t;
  if (!restored && s.first_submit < 0) s.first_submit = t;
  s.restored = s.restored || restored;
  s.placed = false;
  s.cur_straggler = 1.0;
  RawSpan span;
  span.kind = SpanKind::kAwaitingRound;
  span.start = t;
  open_span(s, std::move(span));
}

void JobTraceLog::wait_verdict(std::int64_t job, double t, std::int64_t round,
                               SpanKind bucket) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = live(job);
  if (s == nullptr || s->placed) return;
  RawSpan& b = s->spans.back();
  if (b.open) {
    // Same verdict again: the wait continues, stamped with one more
    // round. A preempted/faulted span opened at this same instant also
    // absorbs the verdict — the displacement is the cause of the wait
    // until the scheduler reconsiders at a later round.
    const bool fresh_displacement =
        (b.kind == SpanKind::kPreempted || b.kind == SpanKind::kFaulted) &&
        b.start == t;
    if (b.kind == bucket || fresh_displacement) {
      if (b.rounds.empty() || b.rounds.back() != round) {
        b.rounds.push_back(round);
      }
      return;
    }
  }
  close_open(*s, t);
  RawSpan span;
  span.kind = bucket;
  span.start = t;
  span.rounds = {round};
  open_span(*s, std::move(span));
}

void JobTraceLog::placed(std::int64_t job, double t, std::int64_t round,
                         const std::vector<std::int64_t>& group, double gamma,
                         std::string_view mode) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = live(job);
  if (s == nullptr) return;
  if (s->first_placed < 0) s->first_placed = t;
  std::vector<std::int64_t> sorted = group;
  std::sort(sorted.begin(), sorted.end());
  if (s->placed && s->spans.back().open) {
    RawSpan& b = s->spans.back();
    if (b.group == sorted && b.mode == mode) {
      // Unchanged placement: no new restart gate. Merge when nothing
      // else drifted, otherwise cycle the span (degraded continuation
      // re-admitted as a normal group, or the scheduler's predicted γ
      // moved) keeping the old gate.
      if (b.kind == SpanKind::kRun && b.gamma == gamma) {
        if (b.rounds.empty() || b.rounds.back() != round) {
          b.rounds.push_back(round);
        }
        return;
      }
      const double gate = b.gate_until;
      close_open(*s, t);
      RawSpan span;
      span.kind = SpanKind::kRun;
      span.start = t;
      span.rounds = {round};
      span.group = std::move(sorted);
      span.gamma = gamma;
      span.mode = std::string(mode);
      span.straggler = s->cur_straggler;
      span.gate_until = gate;
      open_span(*s, std::move(span));
      return;
    }
  }
  // First placement or regrouped: the restart gate opens.
  close_open(*s, t);
  RawSpan span;
  span.kind = SpanKind::kRun;
  span.start = t;
  span.rounds = {round};
  span.group = std::move(sorted);
  span.gamma = gamma;
  span.mode = std::string(mode);
  span.straggler = s->cur_straggler;
  span.gate_until = t + restart_penalty_;
  s->placed = true;
  open_span(*s, std::move(span));
}

void JobTraceLog::degraded_continue(std::int64_t job, double t,
                                    std::int64_t round,
                                    const std::vector<std::int64_t>& group,
                                    double gamma, std::string_view mode) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = live(job);
  if (s == nullptr || !s->placed) return;
  std::vector<std::int64_t> sorted = group;
  std::sort(sorted.begin(), sorted.end());
  const RawSpan& b = s->spans.back();
  // Survivors keep their old gate and straggler factor; only the group
  // configuration (and its predicted γ) changed.
  const double gate = b.gate_until;
  const std::string span_mode = mode.empty() ? b.mode : std::string(mode);
  close_open(*s, t);
  RawSpan span;
  span.kind = SpanKind::kDegraded;
  span.start = t;
  span.rounds = {round};
  span.group = std::move(sorted);
  span.gamma = gamma;
  span.mode = span_mode;
  span.straggler = s->cur_straggler;
  span.gate_until = gate;
  open_span(*s, std::move(span));
}

void JobTraceLog::straggler(std::int64_t job, double t, double factor) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = live(job);
  if (s == nullptr) return;
  s->cur_straggler = factor;
  if (!s->placed || !s->spans.back().open) return;
  if (s->spans.back().straggler == factor) return;
  // Cycle the placed span so its straggler annotation stays piecewise
  // constant; everything else (group, γ, gate) carries over.
  RawSpan span = s->spans.back();
  close_open(*s, t);
  span.start = t;
  span.straggler = factor;
  span.open = false;
  open_span(*s, std::move(span));
}

void JobTraceLog::restarted(std::int64_t job) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = live(job);
  if (s != nullptr) ++s->restarts;
}

void JobTraceLog::displace(std::int64_t job, double t, std::int64_t round,
                           SpanKind kind, bool preemption) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = live(job);
  if (s == nullptr || !s->placed) return;
  if (preemption) ++s->preemptions;
  close_open(*s, t);
  s->placed = false;
  s->cur_straggler = 1.0;
  RawSpan span;
  span.kind = kind;
  span.start = t;
  span.rounds = {round};
  open_span(*s, std::move(span));
}

void JobTraceLog::preempted(std::int64_t job, double t, std::int64_t round) {
  displace(job, t, round, SpanKind::kPreempted, /*preemption=*/true);
}

void JobTraceLog::evicted(std::int64_t job, double t, std::int64_t round) {
  displace(job, t, round, SpanKind::kFaulted, /*preemption=*/true);
}

void JobTraceLog::faulted(std::int64_t job, double t, std::int64_t round) {
  displace(job, t, round, SpanKind::kFaulted, /*preemption=*/false);
}

void JobTraceLog::finished(std::int64_t job, double t, double reported_jct) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = live(job);
  if (s == nullptr) return;
  close_open(*s, t);
  s->placed = false;
  s->finished = true;
  s->finish = t;
  s->reported_jct = reported_jct;
  finalize_locked(*s);
}

void JobTraceLog::cancelled(std::int64_t job, double t) {
  std::lock_guard<std::mutex> lock(mu_);
  State* s = live(job);
  if (s == nullptr) return;
  close_open(*s, t);
  s->placed = false;
  s->cancelled = true;
  s->finish = t;
}

void JobTraceLog::finalize_locked(State& s) {
  const JobTimeline tl = attribute(s);
  ++finished_jobs_;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    totals_[static_cast<size_t>(k)] += tl.bucket_seconds[static_cast<size_t>(k)];
  }
  if (metrics_ == nullptr) return;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    metrics_
        ->histogram("muri_job_wait_bucket_seconds",
                    "Attributed seconds per wait/run bucket, observed per "
                    "finished job",
                    wait_bucket_bounds(),
                    {{"bucket", kSpanKindNames[k]}})
        .observe(tl.bucket_seconds[static_cast<size_t>(k)]);
  }
}

void JobTraceLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  jobs_.clear();
}

JobTimeline JobTraceLog::attribute(const State& s) {
  JobTimeline tl;
  tl.job = s.job;
  tl.submit = s.submit;
  tl.finish = s.finish;
  tl.accept = s.accept;
  tl.finished = s.finished;
  tl.cancelled = s.cancelled;
  tl.restored = s.restored;
  tl.reported_jct = s.reported_jct;
  tl.first_submit = s.first_submit;
  tl.first_placed = s.first_placed;
  tl.preemptions = s.preemptions;
  tl.restarts = s.restarts;
  for (const RawSpan& r : s.spans) {
    const double end = r.open ? r.start : r.end;
    const auto push = [&](SpanKind kind, double a, double b) {
      TimelineSpan span;
      span.kind = kind;
      span.start = a;
      span.end = b;
      span.rounds = r.rounds;
      span.group = r.group;
      span.gamma = r.gamma;
      span.mode = r.mode;
      span.straggler = r.straggler;
      tl.bucket_seconds[static_cast<size_t>(kind)] += span.seconds();
      tl.spans.push_back(std::move(span));
    };
    if (r.kind == SpanKind::kRun || r.kind == SpanKind::kDegraded) {
      // The restart gate is pure stall: the placed span splits at the
      // gate into restart + progressing time.
      const double gate = std::min(std::max(r.gate_until, r.start), end);
      bool pushed = false;
      if (gate > r.start) {
        push(SpanKind::kRestart, r.start, gate);
        pushed = true;
      }
      if (end > gate || !pushed) push(r.kind, gate, end);
    } else {
      push(r.kind, r.start, end);
    }
  }
  return tl;
}

std::vector<JobTimeline> JobTraceLog::timelines() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobTimeline> out;
  out.reserve(jobs_.size());
  for (const auto& [id, s] : jobs_) {
    if (!traced(s)) continue;
    out.push_back(attribute(s));
  }
  return out;
}

bool JobTraceLog::timeline(std::int64_t job, JobTimeline& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end() || !traced(it->second)) return false;
  out = attribute(it->second);
  return true;
}

std::array<double, kNumSpanKinds> JobTraceLog::totals(
    std::int64_t* finished_jobs) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_jobs != nullptr) *finished_jobs = finished_jobs_;
  return totals_;
}

// -- Validation -------------------------------------------------------

std::string validate_timeline(const JobTimeline& t) {
  if (t.spans.empty()) {
    if (t.finished && t.jct() > 0) return "finished job has no spans";
    return "";
  }
  if (t.spans.front().start != t.submit) {
    return "first span does not start at submit";
  }
  for (size_t i = 0; i + 1 < t.spans.size(); ++i) {
    if (t.spans[i].end != t.spans[i + 1].start) {
      return "spans not contiguous at index " + std::to_string(i);
    }
    if (t.spans[i].end < t.spans[i].start) {
      return "negative span at index " + std::to_string(i);
    }
  }
  double total = 0;
  for (const TimelineSpan& s : t.spans) total += s.seconds();
  if (!close_enough(total, t.total_seconds())) {
    return "bucket seconds do not sum to span seconds";
  }
  if (!t.finished) return "";
  if (t.spans.back().end != t.finish) {
    return "last span does not end at finish";
  }
  if (t.restored || t.cancelled || t.reported_jct < 0) return "";
  if (!close_enough(total, t.reported_jct)) {
    std::string err = "buckets sum to ";
    append_num(err, total);
    err += " but reported jct is ";
    append_num(err, t.reported_jct);
    return err;
  }
  return "";
}

// -- The fold step -----------------------------------------------------

namespace {

// The record types fold() reads. fold() and on_record() both gate on this
// one list, so the live and offline folds see the same records.
bool folded_type(std::string_view type) {
  static constexpr std::string_view kFolded[] = {
      "sim_start", "daemon_start", "arrival", "job_submit", "job_restore",
      "group", "wait", "placement", "degraded_continue", "straggler",
      "restart", "preempt", "evict", "fault", "finish", "job_cancel"};
  return std::find(std::begin(kFolded), std::end(kFolded), type) !=
         std::end(kFolded);
}

}  // namespace

void JobTraceLog::fold(const JsonValue& v) {
  if (!v.is_object()) return;
  const std::string type = str_field(v, "type");
  if (!folded_type(type)) return;
  const auto round = static_cast<std::int64_t>(num_field(v, "round", 0));
  const double t = num_field(v, "t", 0);
  // Only a submit makes a job known, and -1 is never submitted: every
  // other event on a record without a valid id falls on an unknown job.
  const std::int64_t job = job_id(v.at("job"));
  std::vector<std::int64_t> ids;

  if (type == "sim_start") {
    clear();
    restart_penalty_ = num_field(v, "restart_penalty", 0);
  } else if (type == "daemon_start") {
    // No clear: a resumed WAL continues the same system; restored jobs
    // re-open via job_restore below.
    restart_penalty_ = num_field(v, "restart_penalty", 0);
  } else if (type == "arrival" || type == "job_submit") {
    if (job >= 0) submitted(job, t);
  } else if (type == "job_restore") {
    if (job >= 0) submitted(job, t, /*restored=*/true);
  } else if (type == "group") {
    if (id_array_field(v, "jobs", ids)) {
      if (round != gamma_round_) {
        gamma_round_ = round;
        round_gammas_.clear();
      }
      std::sort(ids.begin(), ids.end());
      round_gammas_[std::move(ids)] = num_field(v, "gamma", 1.0);
    }
  } else if (type == "wait") {
    const JsonValue& buckets = v.at("bucket");
    if (id_array_field(v, "job", ids) && buckets.is_array() &&
        buckets.array.size() == ids.size()) {
      for (size_t i = 0; i < ids.size(); ++i) {
        SpanKind kind;
        if (buckets.array[i].is_string() &&
            span_kind_from_name(buckets.array[i].string, kind)) {
          wait_verdict(ids[i], t, round, kind);
        }
      }
    }
  } else if (type == "placement") {
    if (id_array_field(v, "jobs", ids)) {
      std::vector<std::int64_t> key = ids;
      std::sort(key.begin(), key.end());
      double gamma = 1.0;
      if (round == gamma_round_) {
        const auto it = round_gammas_.find(key);
        if (it != round_gammas_.end()) gamma = it->second;
      }
      const std::string mode = str_field(v, "mode");
      for (const std::int64_t id : ids) {
        placed(id, t, round, ids, gamma, mode);
      }
    }
  } else if (type == "degraded_continue") {
    if (id_array_field(v, "jobs", ids)) {
      const double gamma = num_field(v, "gamma", 1.0);
      const std::string mode = str_field(v, "mode");
      for (const std::int64_t id : ids) {
        degraded_continue(id, t, round, ids, gamma, mode);
      }
    }
  } else if (type == "straggler") {
    straggler(job, t, num_field(v, "factor", 1.0));
  } else if (type == "restart") {
    restarted(job);
  } else if (type == "preempt") {
    preempted(job, t, round);
  } else if (type == "evict") {
    evicted(job, t, round);
  } else if (type == "fault") {
    faulted(job, t, round);
  } else if (type == "finish") {
    finished(job, t, num_field(v, "jct", -1));
  } else if (type == "job_cancel") {
    cancelled(job, t);
  }
}

void JobTraceLog::on_record(std::string_view line) {
  // DecisionLog::entry() opens every line with {"type":"<type>", so a
  // record the fold does not read is skipped unparsed.
  constexpr std::string_view kHead = "{\"type\":\"";
  if (line.substr(0, kHead.size()) != kHead) return;
  const std::string_view rest = line.substr(kHead.size());
  if (!folded_type(rest.substr(0, rest.find('"')))) return;
  JsonValue v;
  if (parse_json(line, v)) fold(v);
}

void build_job_traces(const std::vector<DecisionRecord>& records,
                      JobTraceLog& out) {
  for (const DecisionRecord& rec : records) out.fold(rec.value);
}

// -- Renderers --------------------------------------------------------

std::string timeline_text(const JobTimeline& t) {
  std::string out = "job ";
  append_int(out, t.job);
  out += ": submit=";
  append_num(out, t.submit);
  if (t.finished || t.cancelled) {
    out += t.cancelled ? " cancelled=" : " finish=";
    append_num(out, t.finish);
    out += " jct=";
    append_num(out, t.jct());
  } else {
    out += " in-flight";
  }
  if (t.accept >= 0 && t.accept != t.submit) {
    out += " admission_wait=";
    append_num(out, t.submit - t.accept);
  }
  if (t.restored) out += " restored";
  out += " spans=";
  append_int(out, static_cast<std::int64_t>(t.spans.size()));
  out += '\n';
  for (const TimelineSpan& s : t.spans) {
    out += "  ";
    out += span_kind_name(s.kind);
    out += ' ';
    append_num(out, s.start);
    out += " .. ";
    append_num(out, s.end);
    out += " +";
    append_num(out, s.seconds());
    out += " rounds=";
    append_id_array(out, s.rounds);
    if (!s.group.empty()) {
      out += " group=";
      append_id_array(out, s.group);
      if (!s.mode.empty()) {
        out += " mode=";
        out += s.mode;
      }
      out += " gamma=";
      append_num(out, s.gamma);
      if (s.straggler != 1.0) {
        out += " straggler=";
        append_num(out, s.straggler);
      }
    }
    out += '\n';
  }
  out += "  buckets:";
  for (int k = 0; k < kNumSpanKinds; ++k) {
    const double sec = t.bucket_seconds[static_cast<size_t>(k)];
    if (sec == 0) continue;
    out += ' ';
    out += kSpanKindNames[k];
    out += '=';
    append_num(out, sec);
  }
  out += '\n';
  return out;
}

std::string timeline_csv(const std::vector<JobTimeline>& ts) {
  std::string out =
      "job,kind,start,end,seconds,rounds,group,mode,gamma,straggler\n";
  for (const JobTimeline& t : ts) {
    for (const TimelineSpan& s : t.spans) {
      append_int(out, t.job);
      out += ',';
      out += span_kind_name(s.kind);
      out += ',';
      append_num(out, s.start);
      out += ',';
      append_num(out, s.end);
      out += ',';
      append_num(out, s.seconds());
      out += ',';
      for (size_t i = 0; i < s.rounds.size(); ++i) {
        if (i > 0) out += ';';
        append_int(out, s.rounds[i]);
      }
      out += ',';
      for (size_t i = 0; i < s.group.size(); ++i) {
        if (i > 0) out += ';';
        append_int(out, s.group[i]);
      }
      out += ',';
      out += s.mode;
      out += ',';
      append_num(out, s.gamma);
      out += ',';
      append_num(out, s.straggler);
      out += '\n';
    }
  }
  return out;
}

std::string timeline_json(const JobTimeline& t) {
  std::string out = "{\"job\":";
  append_int(out, t.job);
  out += ",\"submit\":";
  append_num(out, t.submit);
  out += ",\"finish\":";
  append_num(out, t.finish);
  if (t.accept >= 0) {
    out += ",\"accept\":";
    append_num(out, t.accept);
  }
  out += ",\"jct\":";
  append_num(out, t.finished || t.cancelled ? t.jct() : -1.0);
  out += ",\"reported_jct\":";
  append_num(out, t.reported_jct);
  out += ",\"finished\":";
  out += t.finished ? "true" : "false";
  out += ",\"cancelled\":";
  out += t.cancelled ? "true" : "false";
  out += ",\"restored\":";
  out += t.restored ? "true" : "false";
  out += ",\"valid\":";
  out += validate_timeline(t).empty() ? "true" : "false";
  out += ",\"buckets\":{";
  for (int k = 0; k < kNumSpanKinds; ++k) {
    if (k > 0) out += ',';
    out += '"';
    out += kSpanKindNames[k];
    out += "\":";
    append_num(out, t.bucket_seconds[static_cast<size_t>(k)]);
  }
  out += "},\"spans\":[";
  for (size_t i = 0; i < t.spans.size(); ++i) {
    const TimelineSpan& s = t.spans[i];
    if (i > 0) out += ',';
    out += "{\"kind\":\"";
    out += span_kind_name(s.kind);
    out += "\",\"start\":";
    append_num(out, s.start);
    out += ",\"end\":";
    append_num(out, s.end);
    out += ",\"seconds\":";
    append_num(out, s.seconds());
    out += ",\"rounds\":";
    append_id_array(out, s.rounds);
    if (!s.group.empty()) {
      out += ",\"group\":";
      append_id_array(out, s.group);
      if (!s.mode.empty()) {
        out += ",\"mode\":\"";
        out += s.mode;
        out += '"';
      }
      out += ",\"gamma\":";
      append_num(out, s.gamma);
      out += ",\"straggler\":";
      append_num(out, s.straggler);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string timelines_json(const std::vector<JobTimeline>& ts) {
  std::array<double, kNumSpanKinds> totals{};
  std::int64_t finished = 0;
  for (const JobTimeline& t : ts) {
    if (!t.finished || t.cancelled) continue;
    ++finished;
    for (int k = 0; k < kNumSpanKinds; ++k) {
      totals[static_cast<size_t>(k)] += t.bucket_seconds[static_cast<size_t>(k)];
    }
  }
  std::string out = "{\"finished\":";
  append_int(out, finished);
  out += ",\"totals\":{";
  for (int k = 0; k < kNumSpanKinds; ++k) {
    if (k > 0) out += ',';
    out += '"';
    out += kSpanKindNames[k];
    out += "\":";
    append_num(out, totals[static_cast<size_t>(k)]);
  }
  out += "},\"jobs\":[";
  for (size_t i = 0; i < ts.size(); ++i) {
    if (i > 0) out += ',';
    out += timeline_json(ts[i]);
  }
  out += "]}";
  return out;
}

std::string chrome_trace_json(const std::vector<JobTimeline>& ts) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&]() {
    if (!first) out += ',';
    first = false;
  };
  for (const JobTimeline& t : ts) {
    sep();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    append_int(out, t.job);
    out += ",\"tid\":0,\"args\":{\"name\":\"job ";
    append_int(out, t.job);
    out += "\"}}";
    for (const TimelineSpan& s : t.spans) {
      sep();
      out += "{\"name\":\"";
      out += span_kind_name(s.kind);
      out += "\",\"cat\":\"jobtrace\",\"ph\":\"X\",\"pid\":";
      append_int(out, t.job);
      out += ",\"tid\":0,\"ts\":";
      append_num(out, s.start * 1e6);
      out += ",\"dur\":";
      append_num(out, s.seconds() * 1e6);
      out += ",\"args\":{\"round\":";
      append_int(out, s.rounds.empty() ? 0 : s.rounds.back());
      out += ",\"gamma\":";
      append_num(out, s.gamma);
      out += ",\"straggler\":";
      append_num(out, s.straggler);
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

// -- Jobs report ------------------------------------------------------

namespace {

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string f3(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

struct Percentiles {
  double p50 = 0, p90 = 0, p99 = 0, mean = 0;
  std::size_t n = 0;
};

Percentiles percentiles_of(const std::vector<double>& xs) {
  Percentiles p;
  p.n = xs.size();
  if (xs.empty()) return p;
  double sum = 0;
  for (double x : xs) sum += x;
  p.mean = sum / static_cast<double>(xs.size());
  p.p50 = percentile(xs, 50);
  p.p90 = percentile(xs, 90);
  p.p99 = percentile(xs, 99);
  return p;
}

struct JobsSummary {
  std::int64_t finished = 0;
  std::int64_t cancelled = 0;
  std::int64_t in_flight = 0;
  Percentiles wait;
  Percentiles jct;
};

JobsSummary summarize(const std::vector<JobTimeline>& ts) {
  JobsSummary out;
  std::vector<double> waits;
  std::vector<double> jcts;
  for (const JobTimeline& t : ts) {
    if (t.finished) {
      ++out.finished;
    } else if (t.cancelled) {
      ++out.cancelled;
    } else {
      ++out.in_flight;
    }
    if (t.has_wait()) waits.push_back(t.wait());
    if (t.has_service_jct()) jcts.push_back(t.service_jct());
  }
  out.wait = percentiles_of(waits);
  out.jct = percentiles_of(jcts);
  return out;
}

const char* state_of(const JobTimeline& t) {
  if (t.finished) return "finished";
  if (t.cancelled) return "cancelled";
  if (t.first_placed >= 0) return "scheduled";
  return "queued";
}

bool ended(const JobTimeline& t) { return t.finished || t.cancelled; }

}  // namespace

std::string jobs_report_text(const std::vector<JobTimeline>& ts) {
  std::string out;
  out += "job        state      submit_t   wait_s     jct_s      preempt  restart\n";
  for (const JobTimeline& t : ts) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-10lld %-10s %-10s %-10s %-10s %-8lld %lld\n",
                  static_cast<long long>(t.job), state_of(t),
                  t.first_submit >= 0 ? f3(t.first_submit).c_str() : "-",
                  t.has_wait() ? f3(t.wait()).c_str() : "-",
                  t.has_service_jct() ? f3(t.service_jct()).c_str() : "-",
                  static_cast<long long>(t.preemptions),
                  static_cast<long long>(t.restarts));
    out += line;
  }
  const JobsSummary sum = summarize(ts);
  out += "\njobs: " + std::to_string(ts.size()) + " (finished " +
         std::to_string(sum.finished) + ", cancelled " +
         std::to_string(sum.cancelled) + ", in flight " +
         std::to_string(sum.in_flight) + ")\n";
  if (sum.wait.n > 0) {
    out += "wait_s: mean " + f3(sum.wait.mean) + "  p50 " + f3(sum.wait.p50) +
           "  p90 " + f3(sum.wait.p90) + "  p99 " + f3(sum.wait.p99) + "\n";
  }
  if (sum.jct.n > 0) {
    out += "jct_s:  mean " + f3(sum.jct.mean) + "  p50 " + f3(sum.jct.p50) +
           "  p90 " + f3(sum.jct.p90) + "  p99 " + f3(sum.jct.p99) + "\n";
  }
  return out;
}

std::string jobs_report_csv(const std::vector<JobTimeline>& ts) {
  std::string out =
      "job,state,submit_t,first_scheduled_t,end_t,wait_s,jct_s,preemptions,"
      "restarts\n";
  for (const JobTimeline& t : ts) {
    append_int(out, t.job);
    out += ',';
    out += state_of(t);
    out += ',';
    if (t.first_submit >= 0) out += g17(t.first_submit);
    out += ',';
    if (t.first_placed >= 0) out += g17(t.first_placed);
    out += ',';
    if (ended(t)) out += g17(t.finish);
    out += ',';
    if (t.has_wait()) out += g17(t.wait());
    out += ',';
    if (t.has_service_jct()) out += g17(t.service_jct());
    out += ',';
    append_int(out, t.preemptions);
    out += ',';
    append_int(out, t.restarts);
    out += '\n';
  }
  return out;
}

std::string jobs_report_json(const std::vector<JobTimeline>& ts) {
  std::string out = "{\"jobs\":[";
  for (size_t i = 0; i < ts.size(); ++i) {
    const JobTimeline& t = ts[i];
    if (i > 0) out += ',';
    out += "{\"job\":";
    append_int(out, t.job);
    out += ",\"state\":\"";
    out += state_of(t);
    out += '"';
    if (t.first_submit >= 0) out += ",\"submit_t\":" + g17(t.first_submit);
    if (t.first_placed >= 0) {
      out += ",\"first_scheduled_t\":" + g17(t.first_placed);
    }
    if (ended(t)) out += ",\"end_t\":" + g17(t.finish);
    if (t.has_wait()) out += ",\"wait_s\":" + g17(t.wait());
    if (t.has_service_jct()) out += ",\"jct_s\":" + g17(t.service_jct());
    out += ",\"preemptions\":";
    append_int(out, t.preemptions);
    out += ",\"restarts\":";
    append_int(out, t.restarts);
    out += '}';
  }
  const JobsSummary sum = summarize(ts);
  out += "],\"finished\":" + std::to_string(sum.finished);
  out += ",\"cancelled\":" + std::to_string(sum.cancelled);
  out += ",\"in_flight\":" + std::to_string(sum.in_flight);
  const auto append_summary = [&out](const char* key, const Percentiles& p) {
    if (p.n == 0) return;
    out += ",\"";
    out += key;
    out += "\":{\"mean\":" + g17(p.mean) + ",\"p50\":" + g17(p.p50) +
           ",\"p90\":" + g17(p.p90) + ",\"p99\":" + g17(p.p99) + "}";
  };
  append_summary("wait_s", sum.wait);
  append_summary("jct_s", sum.jct);
  out += "}\n";
  return out;
}

}  // namespace muri::obs
