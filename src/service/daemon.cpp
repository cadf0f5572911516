#include "service/daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "job/model.h"
#include "obs/jobtrace.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "scheduler/baselines.h"
#include "scheduler/muri.h"

namespace muri::service {

namespace {

using Clock = std::chrono::steady_clock;

std::string fmt_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Uniform error body for every job-API failure path: {"error": ..,
// "code": ..} with the HTTP status mirrored into "code" so clients that
// only see the body (or log it) keep the status.
void json_error(obs::HttpResponse& resp, int status, const std::string& what) {
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = "{\"error\":\"";
  obs::append_json_escaped(resp.body, what);
  resp.body += "\",\"code\":" + std::to_string(status) + "}\n";
}

// Muri exports its muri_sched_* and muri_decision_* series into `metrics`.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          obs::MetricsRegistry* metrics) {
  if (name == "muri-l" || name == "muri-s") {
    MuriOptions opt;
    opt.durations_known = name == "muri-s";
    opt.metrics = metrics;
    return std::make_unique<MuriScheduler>(opt);
  }
  if (name == "fifo") return std::make_unique<FifoScheduler>();
  if (name == "srtf") return std::make_unique<SrtfScheduler>();
  if (name == "srsf") return std::make_unique<SrsfScheduler>();
  return nullptr;
}

std::string job_status_json(const JobStatus& st) {
  std::string out = "{\"job\":" + std::to_string(st.id);
  out += ",\"state\":\"";
  out += to_string(st.phase);
  out += "\",\"model\":\"";
  out += muri::to_string(st.model);
  out += "\"";
  if (!st.name.empty()) {
    out += ",\"name\":\"";
    obs::append_json_escaped(out, st.name);
    out += '"';
  }
  out += ",\"gpus\":" + std::to_string(st.num_gpus);
  out += ",\"iterations\":" + std::to_string(st.iterations);
  out += ",\"done\":" + fmt_num(st.done_iterations);
  out += ",\"submit_t\":" + fmt_num(st.submit_time);
  if (st.first_scheduled >= 0) {
    out += ",\"first_scheduled_t\":" + fmt_num(st.first_scheduled);
  }
  if (st.end_time >= 0) out += ",\"end_t\":" + fmt_num(st.end_time);
  out += ",\"preemptions\":" + std::to_string(st.preemptions);
  out += "}";
  return out;
}

std::string admitted_json(const QueuedSubmission& s) {
  std::string out = "{\"job\":" + std::to_string(s.id);
  out += ",\"state\":\"admitted\",\"model\":\"";
  out += muri::to_string(s.spec.model);
  out += "\"";
  if (!s.spec.name.empty()) {
    out += ",\"name\":\"";
    obs::append_json_escaped(out, s.spec.name);
    out += '"';
  }
  out += ",\"gpus\":" + std::to_string(s.spec.num_gpus);
  out += ",\"iterations\":" + std::to_string(s.spec.iterations);
  out += ",\"submit_t\":" + fmt_num(s.submit_time);
  out += "}";
  return out;
}

// 2^53: every integer up to it is exact in a double, the form ids and
// iteration counts take in JSON and in the WAL.
constexpr std::int64_t kTwoTo53 = std::int64_t{1} << 53;

// The range check POST /jobs and WAL restore share, run on int64 values
// before they are narrowed; empty when the spec fits the cluster.
std::string spec_range_error(std::int64_t gpus, std::int64_t iterations,
                             const ClusterSpec& cluster) {
  const int total = cluster.num_machines * cluster.gpus_per_machine;
  if (gpus < 1 || gpus > total) {
    return "\"gpus\" must be in [1, " + std::to_string(total) + "]";
  }
  if (iterations < 1 || iterations > kTwoTo53) {
    return "\"iterations\" must be in [1, 2^53]";
  }
  return "";
}

Job make_job(const JobSpec& spec, JobId id, Time submit_time) {
  return Job{id, spec.model, spec.num_gpus, submit_time, spec.iterations,
             model_profile(spec.model, spec.num_gpus)};
}

}  // namespace

// Engine-side feed of the live SLO plane. Runs inside engine calls (under
// engine_mu_), so it only touches self-locking sinks: the registry, the
// time-series store, and the SLO tracker.
struct MuriDaemon::Observer final : EngineObserver {
  explicit Observer(MuriDaemon& daemon) : d(daemon) {}

  void on_first_schedule(Time now, double wait_s) override {
    (void)now;
    const double w = d.wall_now();
    d.registry_
        .summary("muri_daemon_queue_wait_seconds",
                 "Simulated seconds from submission to first placement")
        .observe(wait_s);
    if (d.slo_ != nullptr) d.slo_->observe("queue_wait_s", w, wait_s);
    if (d.history_ != nullptr) d.history_->append("queue_wait_s", w, wait_s);
  }

  void on_job_finish(Time now, double jct_s) override {
    (void)now;
    const double w = d.wall_now();
    d.registry_
        .summary("muri_daemon_jct_seconds",
                 "Simulated job completion time (finish - submit)")
        .observe(jct_s);
    if (d.history_ != nullptr) d.history_->append("jct_s", w, jct_s);
  }

  void on_round(Time now, double schedule_s, double place_s) override {
    (void)now;
    d.registry_
        .histogram("muri_daemon_round_phase_seconds",
                   "Wall seconds per engine round phase",
                   obs::kRoundPhaseBounds, {{"phase", "schedule"}})
        .observe(schedule_s);
    d.registry_
        .histogram("muri_daemon_round_phase_seconds",
                   "Wall seconds per engine round phase",
                   obs::kRoundPhaseBounds, {{"phase", "place"}})
        .observe(place_s);
  }

  MuriDaemon& d;
};

MuriDaemon::MuriDaemon(DaemonOptions options) : options_(std::move(options)) {}

MuriDaemon::~MuriDaemon() { stop("destructor"); }

double MuriDaemon::wall_now() const {
  return std::chrono::duration<double>(Clock::now() - wall_base_).count();
}

void MuriDaemon::inject_loop_stall_for_test(double stall_s) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  heartbeat_wall_.store(heartbeat_wall_.load() - stall_s);
}

Time MuriDaemon::wall_to_sim(Clock::time_point t) const {
  const double elapsed =
      std::chrono::duration<double>(t - wall_base_).count();
  return sim_base_ + elapsed * options_.compression;
}

Time MuriDaemon::sim_now() const {
  if (options_.manual_time) return manual_now_;
  return wall_to_sim(Clock::now());
}

bool MuriDaemon::start(std::string* error) {
  scheduler_ = make_scheduler(options_.scheduler, &registry_);
  if (scheduler_ == nullptr) {
    if (error != nullptr) {
      *error = "unknown scheduler '" + options_.scheduler +
               "' (expected muri-l, muri-s, fifo, srtf, or srsf)";
    }
    return false;
  }

  // The restart set (with each job's checkpointed iterations): the jobs
  // the WAL submitted and did not retire, checked like a POST before
  // anything is written.
  std::vector<std::pair<QueuedSubmission, double>> restored;
  bool resumed = false;
  JobId first_job_id = 0;
  if (!options_.wal_path.empty()) {
    recovery::DurableSinkOptions sink_opts;
    sink_opts.fsync = options_.fsync;
    sink_opts.append_resume = options_.resume;
    sink_opts.honor_crash_env = options_.honor_crash_env;
    sink_ = std::make_unique<recovery::DurableSink>(options_.wal_path,
                                                    sink_opts);
    if (!sink_->ok()) {
      if (error != nullptr) *error = sink_->error();
      return false;
    }
    log_.set_sink(sink_.get());
    const recovery::ReplayState& state = sink_->recovered().state;
    const auto fail = [&](const std::string& what) {
      if (error != nullptr) *error = options_.wal_path + ": " + what;
      return false;
    };
    if (state.max_job >= kTwoTo53) {
      return fail("job " + std::to_string(state.max_job) +
                  ": ids must be below 2^53");
    }
    for (const auto& [id, job] : state.jobs) {
      QueuedSubmission s;
      std::string bad = id < 0 ? "ids must be in [0, 2^53)"
                               : spec_range_error(job.gpus, job.iterations,
                                                  options_.cluster);
      if (bad.empty() && !parse_model(job.model, s.spec.model)) {
        bad = "unknown \"model\" '" + job.model + "'";
      }
      if (!bad.empty()) return fail("job " + std::to_string(id) + ": " + bad);
      s.spec.num_gpus = static_cast<int>(job.gpus);
      s.spec.iterations = job.iterations;
      s.spec.name = job.name;
      s.spec.deadline_s = job.deadline_s;
      s.id = id;
      s.submit_time = job.submit_t;
      if (!job.name.empty()) name_to_id_[job.name] = id;
      restored.emplace_back(std::move(s), job.done);
    }
    // Ids are handed out one per accepted POST, and each id that reached
    // the WAL is named by a record of its own (its job_submit, or the
    // job_cancel of a queued cancel), so restored ids spanning more ids
    // than the WAL has records did not come from a daemon. The engine's
    // job table starts at the lowest restored id, not at 0.
    next_job_id_ = state.max_job + 1;
    first_job_id = restored.empty() ? next_job_id_ : restored.front().first.id;
    if (next_job_id_ - first_job_id > state.records) {
      return fail("job " + std::to_string(state.max_job) +
                  ": ids must lie within " + std::to_string(state.records) +
                  " (the WAL's record count) of the lowest restored job " +
                  std::to_string(first_job_id));
    }
    sim_base_ = state.sim_time;
    log_.resume_round(state.round);
    resumed = state.max_job >= 0;
  }
  scheduler_->set_decision_log(&log_);

  // Live SLO plane. The store and tracker are nullable hooks; the
  // observer is always attached (registry summaries back /stats even with
  // sampling off) and checks them internally.
  if (options_.sample_interval_s > 0) {
    history_ =
        std::make_unique<obs::TimeSeriesStore>(options_.history_capacity);
  }
  if (options_.slo.any_enabled()) {
    slo_ = std::make_unique<obs::SloTracker>(options_.slo, &registry_);
  }
  observer_ = std::make_unique<Observer>(*this);
  if (options_.jobtrace_enabled) {
    // The recorder folds the log from daemon_start on; only the HTTP
    // accept instant reaches it directly.
    jobtrace_ = std::make_unique<obs::JobTraceLog>();
    jobtrace_->set_metrics(&registry_);
    log_.set_subscriber(jobtrace_.get());
  }

  // The daemon serves the fault-free execution model: the engine's fault
  // processes stay at their zero-rate defaults.
  SimOptions eng;
  eng.cluster = options_.cluster;
  eng.exec = options_.exec;
  eng.restart_penalty = options_.restart_penalty_s;
  eng.durations_known = scheduler_->needs_durations();
  eng.profiler = options_.profiler;
  eng.decisions = &log_;
  engine_ = std::make_unique<ExecutionEngine>(*scheduler_, eng, sim_base_,
                                              observer_.get(), first_job_id);
  queue_ = std::make_unique<AdmissionQueue>(options_.queue_capacity);

  wall_base_ = Clock::now();
  manual_now_ = sim_base_;
  last_round_sim_ = sim_base_;
  heartbeat_wall_.store(0.0);
  next_sample_wall_ = 0;

  if (history_ != nullptr) {
    // Sampled-gauge probes read daemon state guarded by engine_mu_;
    // sample() is only called from pump(), which holds it.
    history_->add_probe("queue_depth", obs::ProbeKind::kGauge, [this] {
      return static_cast<double>(queue_->depth());
    });
    history_->add_probe("active_jobs", obs::ProbeKind::kGauge, [this] {
      return static_cast<double>(engine_->active_jobs());
    });
    history_->add_probe("running_jobs", obs::ProbeKind::kGauge, [this] {
      return static_cast<double>(engine_->running_jobs());
    });
    history_->add_probe("sim_time", obs::ProbeKind::kGauge,
                        [this] { return engine_->now(); });
    history_->add_probe("submission_rate", obs::ProbeKind::kRate, [this] {
      return static_cast<double>(queue_->stats().accepted);
    });
    history_->add_probe("rejection_rate", obs::ProbeKind::kRate, [this] {
      return static_cast<double>(queue_->stats().rejected_full);
    });
    history_->add_probe("round_rate", obs::ProbeKind::kRate, [this] {
      return static_cast<double>(engine_->rounds_run());
    });
    if (sink_ != nullptr) {
      history_->add_probe("wal_unsynced_records", obs::ProbeKind::kGauge,
                          [this] {
                            return static_cast<double>(
                                sink_->io_stats().unsynced_records);
                          });
    }
  }

  {
    auto e = log_.entry("daemon_start");
    e.num("t", sim_base_)
        .integer("machines", options_.cluster.num_machines)
        .integer("gpus", static_cast<std::int64_t>(
                             options_.cluster.num_machines) *
                             options_.cluster.gpus_per_machine)
        .num("restart_penalty", options_.restart_penalty_s);
    if (resumed) e.integer("resumed", 1);
  }
  // Re-admission keeps the original submit time, the checkpointed
  // progress and a start deadline the job has not yet met. The timeline
  // opens at the restore instant: pre-crash spans are gone, so the job is
  // marked restored.
  for (const auto& [s, done] : restored) {
    engine_->submit(make_job(s.spec, s.id, s.submit_time), s.spec.name,
                    s.spec.deadline_s, done);
    log_.entry("job_restore")
        .num("t", sim_base_)
        .integer("job", s.id)
        .num("done", done);
  }

  exporter_ = std::make_unique<obs::HttpExporter>(registry_);
  exporter_->set_limits(options_.max_header_bytes, options_.max_body_bytes,
                        options_.read_timeout_ms);
  exporter_->set_request_metrics(&registry_);
  exporter_->set_handler(
      [this](const obs::HttpRequest& req, obs::HttpResponse& resp) {
        return handle(req, resp);
      });
  if (!exporter_->start(options_.http_port, error)) return false;

  running_.store(true);
  accepting_.store(true);
  obs::export_build_info(registry_);
  update_gauges();
  if (!options_.manual_time) {
    loop_thread_ = std::thread([this] { loop(); });
  }
  return true;
}

void MuriDaemon::stop(const char* reason) {
  if (stopped_) return;
  stopped_ = true;
  accepting_.store(false);
  const bool was_running = running_.exchange(false);
  loop_cv_.notify_all();
  if (loop_thread_.joinable()) loop_thread_.join();

  if (was_running && engine_ != nullptr) {
    std::lock_guard<std::mutex> lock(engine_mu_);
    const Time now = sim_now();
    advance_engine(now);
    // Persist what the queue still holds: every drained submission writes
    // a durable job_submit, so a restart re-queues it (no job lost).
    for (const QueuedSubmission& s : queue_->drain()) admit(s);
    engine_->checkpoint_progress();
    log_.entry("daemon_stop").num("t", now).str("reason", reason);
    update_gauges();
  }
  if (sink_ != nullptr) {
    sink_->sync();
    sink_->close();
  }
  log_.set_sink(nullptr);
  if (exporter_ != nullptr) exporter_->stop();
}

void MuriDaemon::advance_engine(Time t) {
  while (engine_->now() < t) {
    const Time before = engine_->now();
    engine_->progress_to(std::clamp(engine_->next_event_time(), before, t));
    // A zero-length step that settles nothing cannot make progress.
    if (!engine_->settle() && engine_->now() == before) break;
  }
  engine_->progress_to(t);
}

void MuriDaemon::admit(const QueuedSubmission& s) {
  engine_->submit(make_job(s.spec, s.id, s.submit_time), s.spec.name,
                  s.spec.deadline_s);
  auto e = log_.entry("job_submit");
  e.num("t", s.submit_time)
      .integer("job", s.id)
      .str("model", muri::to_string(s.spec.model))
      .integer("gpus", s.spec.num_gpus)
      .integer("iterations", s.spec.iterations);
  if (!s.spec.name.empty()) e.str("name", s.spec.name);
  if (s.spec.deadline_s > 0) e.num("deadline_s", s.spec.deadline_s);
}

void MuriDaemon::pump(Time now, bool force_round) {
  // Heartbeat first: measure the gap since the previous pass (the
  // event-loop stall signal), then refresh. The injection test hook
  // backdates heartbeat_wall_, which reads as exactly such a gap.
  const double wnow = wall_now();
  const double prev_beat = heartbeat_wall_.load();
  // 0 is the "never beaten" sentinel; a backdated (possibly negative)
  // heartbeat from the injection hook still reads as a stall.
  const double stall_s = prev_beat != 0 ? wnow - prev_beat : 0;
  heartbeat_wall_.store(wnow);
  if (stall_s > 0) {
    if (slo_ != nullptr) slo_->observe("loop_stall_s", wnow, stall_s);
    if (history_ != nullptr) history_->append("loop_stall_s", wnow, stall_s);
  }

  advance_engine(now);
  for (const QueuedSubmission& s : queue_->drain()) admit(s);
  if (engine_->dirty() && !round_pending_) {
    round_pending_ = true;
    round_due_ = Clock::now() +
                 std::chrono::milliseconds(options_.debounce_ms);
  }
  const bool debounced =
      round_pending_ &&
      (force_round || options_.manual_time || Clock::now() >= round_due_);
  const bool fallback =
      engine_->active_jobs() > 0 &&
      now >= last_round_sim_ + options_.round_interval_s;
  if (debounced || fallback) {
    // Round latency as the SLO sees it: the whole run_round call,
    // including the decision records the WAL persists inline. The
    // schedule/place split lands in muri_daemon_round_phase_seconds via
    // the engine observer; the WAL split is the sink's I/O delta.
    const recovery::DurableSink::IoStats io0 =
        sink_ != nullptr ? sink_->io_stats()
                         : recovery::DurableSink::IoStats{};
    const auto t0 = Clock::now();
    engine_->run_round();
    const double round_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    last_round_sim_ = now;
    round_pending_ = false;

    registry_
        .summary("muri_daemon_round_wall_seconds",
                 "End-to-end wall time of one daemon scheduling round")
        .observe(round_s);
    const double w = wall_now();
    if (slo_ != nullptr) slo_->observe("round_latency_s", w, round_s);
    if (history_ != nullptr) history_->append("round_latency_s", w, round_s);
    if (sink_ != nullptr) {
      const recovery::DurableSink::IoStats io1 = sink_->io_stats();
      registry_
          .histogram("muri_daemon_round_phase_seconds",
                     "Wall seconds per engine round phase",
                     obs::kRoundPhaseBounds, {{"phase", "wal"}})
          .observe((io1.append_seconds - io0.append_seconds) +
                   (io1.fsync_seconds - io0.fsync_seconds));
      if (io1.fsyncs > io0.fsyncs) {
        if (slo_ != nullptr) {
          slo_->observe("wal_fsync_s", w, io1.last_fsync_seconds);
        }
        if (history_ != nullptr) {
          history_->append("wal_fsync_s", w, io1.last_fsync_seconds);
        }
      }
    }
  }

  // Sample the time-series store: every step in manual mode (the test's
  // clock), on the wall cadence otherwise.
  if (history_ != nullptr &&
      (options_.manual_time || wnow >= next_sample_wall_)) {
    history_->sample(wall_now());
    next_sample_wall_ = wnow + options_.sample_interval_s;
  }
  if (slo_ != nullptr) slo_->evaluate(wall_now());
  update_gauges();
}

void MuriDaemon::step(double sim_dt) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  manual_now_ += sim_dt;
  pump(manual_now_, false);
}

void MuriDaemon::loop() {
  std::unique_lock<std::mutex> lk(loop_mu_);
  while (running_.load()) {
    // Pick the earliest reason to wake: the debounce window closing, the
    // next predicted finish, or the fixed round-interval fallback; cap at
    // 200ms so clock drift cannot wedge the loop.
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(200);
    {
      std::lock_guard<std::mutex> eng(engine_mu_);
      if (round_pending_) {
        deadline = std::min(deadline, round_due_);
      }
      const Time nf = engine_->next_event_time();
      if (std::isfinite(nf) && options_.compression > 0) {
        const double wall_s = (nf - sim_base_) / options_.compression;
        deadline = std::min(
            deadline,
            wall_base_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(wall_s)));
      }
      if (engine_->active_jobs() > 0 && options_.compression > 0) {
        const double wall_s =
            (last_round_sim_ + options_.round_interval_s - sim_base_) /
            options_.compression;
        deadline = std::min(
            deadline,
            wall_base_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(wall_s)));
      }
    }
    loop_cv_.wait_until(lk, deadline);
    if (!running_.load()) break;
    lk.unlock();
    {
      std::lock_guard<std::mutex> eng(engine_mu_);
      pump(sim_now(), false);
    }
    lk.lock();
  }
}

void MuriDaemon::update_gauges() {
  registry_.gauge("muri_daemon_queue_depth", "Admission queue depth")
      .set(static_cast<double>(queue_->depth()));
  registry_
      .gauge("muri_daemon_queue_capacity", "Admission queue capacity")
      .set(static_cast<double>(queue_->capacity()));
  registry_.gauge("muri_daemon_active_jobs", "Jobs admitted and unfinished")
      .set(static_cast<double>(engine_->active_jobs()));
  registry_.gauge("muri_daemon_running_jobs", "Jobs currently placed")
      .set(static_cast<double>(engine_->running_jobs()));
  registry_.gauge("muri_daemon_sim_time", "Simulated clock (seconds)")
      .set(engine_->now());
  registry_
      .gauge("muri_daemon_rounds_total", "Scheduling rounds run")
      .set(static_cast<double>(engine_->rounds_run()));
  const AdmissionQueue::Stats st = queue_->stats();
  registry_
      .gauge("muri_daemon_submissions_accepted_total",
             "Submissions accepted into the admission queue")
      .set(static_cast<double>(st.accepted));
  registry_
      .gauge("muri_daemon_submissions_rejected_total",
             "Submissions rejected with 429 (queue full)")
      .set(static_cast<double>(st.rejected_full));
  if (sink_ != nullptr) {
    const recovery::DurableSink::IoStats io = sink_->io_stats();
    registry_
        .gauge("muri_wal_appended_bytes", "WAL bytes handed to write()")
        .set(static_cast<double>(io.appended_bytes));
    registry_.gauge("muri_wal_fsyncs_total", "WAL fsync calls")
        .set(static_cast<double>(io.fsyncs));
    registry_
        .gauge("muri_wal_unsynced_records",
               "Records appended since the last fsync (durability lag)")
        .set(static_cast<double>(io.unsynced_records));
    registry_
        .gauge("muri_wal_last_fsync_seconds",
               "Wall seconds of the most recent fsync")
        .set(io.last_fsync_seconds);
  }
  obs::export_build_info(registry_);
}

MuriDaemon::Health MuriDaemon::evaluate_health() {
  Health h;
  const double beat = heartbeat_wall_.load();
  // beat == 0: the loop has not had its first pass yet (manual daemons
  // before any step()) — no heartbeat age to measure.
  h.stall_s = beat != 0 ? wall_now() - beat : 0;
  h.stalled = h.stall_s > options_.watchdog_stall_s;
  h.round_overdue =
      engine_->active_jobs() > 0 && options_.round_interval_s > 0 &&
      sim_now() - last_round_sim_ >
          options_.watchdog_round_factor * options_.round_interval_s;
  h.ok = !h.stalled && !h.round_overdue;
  if (h.stalled) h.reason = "event_loop_stall";
  if (h.round_overdue) {
    if (!h.reason.empty()) h.reason += ',';
    h.reason += "round_overdue";
  }
  // Edge-triggered violation accounting, one per ok->degraded flip.
  if (!h.ok && !watchdog_degraded_) {
    registry_
        .counter("muri_watchdog_violations_total",
                 "Watchdog ok->degraded transitions",
                 {{"reason", h.stalled ? "event_loop_stall"
                                       : "round_overdue"}})
        .inc();
  }
  watchdog_degraded_ = !h.ok;
  registry_
      .gauge("muri_daemon_degraded",
             "1 while the watchdog reports degraded health")
      .set(h.ok ? 0.0 : 1.0);
  registry_
      .gauge("muri_daemon_loop_stall_seconds",
             "Age of the event-loop heartbeat at the last health check")
      .set(h.stall_s);
  return h;
}

std::string MuriDaemon::decisions_jsonl() const { return log_.jsonl(); }

bool MuriDaemon::handle(const obs::HttpRequest& req,
                        obs::HttpResponse& resp) {
  std::string path = req.path;
  std::string query;
  bool explain = false;
  const std::size_t q = path.find('?');
  if (q != std::string::npos) {
    query = path.substr(q + 1);
    explain = query.find("explain=1") != std::string::npos;
    path.resize(q);
  }

  if (path == "/healthz" && req.method == "GET") {
    handle_healthz(query.find("plain=1") != std::string::npos, resp);
    return true;
  }
  if (path == "/stats" && req.method == "GET") {
    handle_stats(resp);
    return true;
  }
  if (path == "/metrics/history" && req.method == "GET") {
    handle_history(query, resp);
    return true;
  }
  if (path == "/jobs") {
    if (req.method == "POST") {
      handle_submit(req, resp);
      return true;
    }
    if (req.method == "GET") {
      handle_list(resp);
      return true;
    }
    json_error(resp, 405, "use GET or POST on /jobs");
    return true;
  }
  if (path.rfind("/jobs/", 0) == 0) {
    char* end = nullptr;
    const long long id = std::strtoll(path.c_str() + 6, &end, 10);
    if (end == path.c_str() + 6) {
      json_error(resp, 404, "bad job id");
      return true;
    }
    if (std::string_view(end) == "/timeline") {
      if (req.method != "GET") {
        json_error(resp, 405, "use GET on /jobs/<id>/timeline");
        return true;
      }
      handle_timeline(static_cast<JobId>(id), resp);
      return true;
    }
    if (*end != '\0') {
      json_error(resp, 404, "bad job id");
      return true;
    }
    if (req.method == "GET") {
      handle_job_get(static_cast<JobId>(id), explain, resp);
      return true;
    }
    if (req.method == "DELETE") {
      handle_job_delete(static_cast<JobId>(id), resp);
      return true;
    }
    json_error(resp, 405, "use GET or DELETE on /jobs/<id>");
    return true;
  }
  if (path == "/decisions" && req.method == "GET") {
    resp.content_type = "application/x-ndjson";
    resp.body = log_.jsonl();
    return true;
  }
  return false;  // fall through to /metrics and /metrics.json
}

void MuriDaemon::handle_healthz(bool plain, obs::HttpResponse& resp) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  const Health h = evaluate_health();
  resp.status = h.ok ? 200 : 503;
  if (plain) {
    // Compatibility form for shell probes (`curl -sf .../healthz?plain=1`
    // still distinguishes ok/degraded by status code alone).
    resp.content_type = "text/plain";
    resp.body = h.ok ? "ok\n" : "degraded\n";
    return;
  }
  std::string out = "{\"status\":\"";
  out += h.ok ? "ok" : "degraded";
  out += "\"";
  if (!h.ok) {
    out += ",\"reason\":\"";
    obs::append_json_escaped(out, h.reason);
    out += '"';
  }
  out += ",\"uptime_s\":" + fmt_num(wall_now());
  out += ",\"sim_t\":" + fmt_num(sim_now());
  out += ",\"loop_stall_s\":" + fmt_num(h.stall_s);
  out += ",\"version\":\"" + std::string(build_version()) + "\"";
  out += ",\"git_sha\":\"" + std::string(build_git_sha()) + "\"}\n";
  resp.content_type = "application/json";
  resp.body = std::move(out);
}

void MuriDaemon::handle_stats(obs::HttpResponse& resp) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  const Health h = evaluate_health();
  if (slo_ != nullptr) slo_->evaluate(wall_now());
  const AdmissionQueue::Stats qs = queue_->stats();

  // Percentile blocks come from the registry summaries the observer and
  // pump() feed; they cover the daemon's whole lifetime (the windowed
  // view lives at /metrics/history).
  const auto summary_block = [&](const char* metric, const char* help) {
    obs::Summary& s = registry_.summary(metric, help);
    std::string out = "{\"count\":" + std::to_string(s.count());
    out += ",\"mean\":" + fmt_num(s.mean());
    out += ",\"p50\":" + fmt_num(s.percentile(50));
    out += ",\"p90\":" + fmt_num(s.percentile(90));
    out += ",\"p99\":" + fmt_num(s.percentile(99));
    out += "}";
    return out;
  };

  std::string out = "{\"uptime_s\":" + fmt_num(wall_now());
  out += ",\"sim_t\":" + fmt_num(sim_now());
  out += ",\"version\":\"" + std::string(build_version()) + "\"";
  out += ",\"git_sha\":\"" + std::string(build_git_sha()) + "\"";
  out += ",\"scheduler\":\"";
  obs::append_json_escaped(out, scheduler_->name());
  out += '"';
  out += ",\"health\":{\"status\":\"";
  out += h.ok ? "ok" : "degraded";
  out += "\",\"loop_stall_s\":" + fmt_num(h.stall_s);
  out += ",\"round_overdue\":";
  out += h.round_overdue ? "true" : "false";
  if (!h.ok) {
    out += ",\"reason\":\"";
    obs::append_json_escaped(out, h.reason);
    out += '"';
  }
  out += "}";
  out += ",\"queue\":{\"depth\":" + std::to_string(queue_->depth());
  out += ",\"capacity\":" + std::to_string(queue_->capacity());
  out += ",\"accepted\":" + std::to_string(qs.accepted);
  out += ",\"rejected\":" + std::to_string(qs.rejected_full);
  out += ",\"cancelled\":" + std::to_string(qs.cancelled);
  out += "}";
  out += ",\"jobs\":{\"active\":" + std::to_string(engine_->active_jobs());
  out += ",\"running\":" + std::to_string(engine_->running_jobs());
  out += ",\"rounds\":" + std::to_string(engine_->rounds_run());
  out += "}";
  out += ",\"wait_s\":" +
         summary_block("muri_daemon_queue_wait_seconds",
                       "Simulated seconds from submission to first "
                       "placement");
  out += ",\"jct_s\":" +
         summary_block("muri_daemon_jct_seconds",
                       "Simulated job completion time (finish - submit)");
  out += ",\"round_s\":" +
         summary_block("muri_daemon_round_wall_seconds",
                       "End-to-end wall time of one daemon scheduling "
                       "round");
  // Round-phase histograms (observer + pump): sum/count per phase.
  out += ",\"round_phases\":{";
  {
    bool first = true;
    for (const char* phase : {"schedule", "place", "wal"}) {
      obs::Histogram& hg = registry_.histogram(
          "muri_daemon_round_phase_seconds",
          "Wall seconds per engine round phase", obs::kRoundPhaseBounds,
          {{"phase", phase}});
      if (!first) out += ',';
      first = false;
      out += "\"";
      out += phase;
      out += "\":{\"count\":" + std::to_string(hg.count());
      out += ",\"sum_s\":" + fmt_num(hg.sum());
      out += ",\"p99\":" + fmt_num(hg.quantile(0.99));
      out += "}";
    }
  }
  out += "}";
  if (sink_ != nullptr) {
    const recovery::DurableSink::IoStats io = sink_->io_stats();
    out += ",\"wal\":{\"records\":" + std::to_string(sink_->records_seen());
    out += ",\"appended\":" + std::to_string(sink_->records_appended());
    out += ",\"appended_bytes\":" + std::to_string(io.appended_bytes);
    out += ",\"unsynced_records\":" + std::to_string(io.unsynced_records);
    out += ",\"fsyncs\":" + std::to_string(io.fsyncs);
    out += ",\"append_s\":" + fmt_num(io.append_seconds);
    out += ",\"fsync_s\":" + fmt_num(io.fsync_seconds);
    out += ",\"last_fsync_s\":" + fmt_num(io.last_fsync_seconds);
    out += ",\"max_fsync_s\":" + fmt_num(io.max_fsync_seconds);
    out += "}";
  }
  out += ",\"engine\":{\"last_round_t\":" + fmt_num(last_round_sim_);
  const Time nf = engine_->next_event_time();
  out += ",\"next_finish_t\":";
  out += std::isfinite(nf) ? fmt_num(nf) : std::string("null");
  out += ",\"last_advance_t\":" + fmt_num(engine_->now());
  out += "}";
  out += ",\"wait_buckets\":{\"enabled\":";
  out += jobtrace_ != nullptr ? "true" : "false";
  if (jobtrace_ != nullptr) {
    std::int64_t finished = 0;
    const std::array<double, obs::kNumSpanKinds> totals =
        jobtrace_->totals(&finished);
    out += ",\"finished_jobs\":" + std::to_string(finished);
    out += ",\"seconds\":{";
    for (int k = 0; k < obs::kNumSpanKinds; ++k) {
      if (k > 0) out += ',';
      out += "\"";
      out += obs::span_kind_name(static_cast<obs::SpanKind>(k));
      out += "\":" + fmt_num(totals[static_cast<std::size_t>(k)]);
    }
    out += "}";
  }
  out += "}";
  out += ",\"slo\":";
  out += slo_ != nullptr ? slo_->json() : std::string("{\"enabled\":false}");
  out += ",\"history\":{\"enabled\":";
  out += history_ != nullptr ? "true" : "false";
  if (history_ != nullptr) {
    out += ",\"samples\":" + std::to_string(history_->samples_taken());
    out += ",\"interval_s\":" + fmt_num(options_.sample_interval_s);
    out +=
        ",\"capacity\":" + std::to_string(history_->capacity_per_series());
  }
  out += "}}\n";
  resp.content_type = "application/json";
  resp.body = std::move(out);
}

void MuriDaemon::handle_history(const std::string& query,
                                obs::HttpResponse& resp) {
  if (history_ == nullptr) {
    json_error(resp, 404,
               "history sampling disabled (start the daemon with "
               "--sample-interval > 0)");
    return;
  }
  double window_s = 0;  // 0 = everything retained
  bool points = true;
  const std::size_t w = query.find("window=");
  if (w != std::string::npos) {
    window_s = std::strtod(query.c_str() + w + 7, nullptr);
  }
  if (query.find("points=0") != std::string::npos) points = false;
  resp.content_type = "application/json";
  resp.body = history_->history_json(wall_now(), window_s, points) + "\n";
}

void MuriDaemon::handle_submit(const obs::HttpRequest& req,
                               obs::HttpResponse& resp) {
  if (!accepting_.load()) {
    resp.extra_headers.emplace_back("Retry-After",
                                    std::to_string(options_.retry_after_s));
    json_error(resp, 503, "shutting down");
    return;
  }
  obs::JsonValue body;
  std::string parse_error;
  if (!obs::parse_json(req.body, body, &parse_error) || !body.is_object()) {
    json_error(resp, 400, "body is not a JSON object: " + parse_error);
    return;
  }
  JobSpec spec;
  if (!body.at("model").is_string() ||
      !parse_model(body.at("model").string, spec.model)) {
    json_error(resp, 400, "missing or unknown \"model\"");
    return;
  }
  if (!body.at("gpus").is_number()) {
    json_error(resp, 400, "missing \"gpus\"");
    return;
  }
  if (!body.at("iterations").is_number()) {
    json_error(resp, 400, "missing \"iterations\"");
    return;
  }
  const std::int64_t gpus = body.at("gpus").as_int();
  const std::int64_t iterations = body.at("iterations").as_int();
  const std::string bad = spec_range_error(gpus, iterations, options_.cluster);
  if (!bad.empty()) {
    json_error(resp, 400, bad);
    return;
  }
  spec.num_gpus = static_cast<int>(gpus);
  spec.iterations = iterations;
  if (body.at("name").is_string()) spec.name = body.at("name").string;
  if (body.at("deadline_s").is_number()) {
    spec.deadline_s = body.at("deadline_s").number;
  }

  std::lock_guard<std::mutex> lock(engine_mu_);
  if (!spec.name.empty()) {
    const auto it = name_to_id_.find(spec.name);
    if (it != name_to_id_.end()) {
      resp.status = 200;
      resp.content_type = "application/json";
      resp.body = "{\"job\":" + std::to_string(it->second) +
                  ",\"duplicate\":true}\n";
      return;
    }
  }
  if (options_.max_active_jobs > 0 &&
      engine_->active_jobs() + static_cast<int>(queue_->depth()) >=
          options_.max_active_jobs) {
    resp.extra_headers.emplace_back("Retry-After",
                                    std::to_string(options_.retry_after_s));
    registry_
        .counter("muri_daemon_rejected_at_capacity_total",
                 "Submissions shed by the max-active-jobs admission bound")
        .inc();
    json_error(resp, 429,
               "at capacity: " +
                   std::to_string(options_.max_active_jobs) +
                   " jobs in the system");
    update_gauges();
    return;
  }
  QueuedSubmission submission;
  submission.spec = spec;
  submission.id = next_job_id_;
  submission.submit_time = sim_now();
  if (!queue_->try_push(submission)) {
    resp.extra_headers.emplace_back("Retry-After",
                                    std::to_string(options_.retry_after_s));
    json_error(resp, 429, "admission queue full");
    update_gauges();
    return;
  }
  ++next_job_id_;  // a rejected submission takes no id
  if (!spec.name.empty()) name_to_id_[spec.name] = submission.id;
  // Timeline anchor: the HTTP-accept instant, ahead of the event loop
  // draining the queue into the engine (accept→submit gap = queue wait).
  if (jobtrace_ != nullptr) {
    jobtrace_->accepted(submission.id, submission.submit_time);
  }
  update_gauges();
  loop_cv_.notify_all();
  resp.status = 202;
  resp.content_type = "application/json";
  resp.body = "{\"job\":" + std::to_string(submission.id) + "}\n";
}

void MuriDaemon::handle_list(obs::HttpResponse& resp) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  std::string out = "{\"jobs\":[";
  bool first = true;
  for (const QueuedSubmission& s : queue_->snapshot()) {
    if (!first) out += ",";
    first = false;
    out += admitted_json(s);
  }
  for (const JobStatus& st : engine_->list_jobs()) {
    if (!first) out += ",";
    first = false;
    out += job_status_json(st);
  }
  out += "],\"sim_t\":" + fmt_num(sim_now()) + "}\n";
  resp.content_type = "application/json";
  resp.body = std::move(out);
}

void MuriDaemon::handle_job_get(JobId id, bool explain,
                                obs::HttpResponse& resp) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  std::string status_json;
  JobStatus st;
  if (engine_->job_status(id, st)) {
    status_json = job_status_json(st);
  } else {
    bool queued = false;
    for (const QueuedSubmission& s : queue_->snapshot()) {
      if (s.id == id) {
        status_json = admitted_json(s);
        queued = true;
        break;
      }
    }
    if (!queued) {
      json_error(resp, 404, "unknown job " + std::to_string(id));
      return;
    }
  }
  resp.content_type = "application/json";
  if (!explain) {
    resp.body = status_json + "\n";
    return;
  }
  std::vector<obs::DecisionRecord> records;
  std::string why = "null";
  if (obs::parse_decision_log(log_.jsonl(), records)) {
    const std::string explained = obs::explain_job_json(records, id);
    if (!explained.empty()) why = explained;
  }
  resp.body =
      "{\"status\":" + status_json + ",\"explain\":" + why + "}\n";
}

void MuriDaemon::handle_timeline(JobId id, obs::HttpResponse& resp) {
  if (jobtrace_ == nullptr) {
    json_error(resp, 404,
               "job tracing disabled (start the daemon with jobtrace "
               "enabled)");
    return;
  }
  std::lock_guard<std::mutex> lock(engine_mu_);
  obs::JobTimeline t;
  if (!jobtrace_->timeline(id, t)) {
    // Accepted-but-not-yet-drained jobs have no timeline yet; report them
    // like any unknown id (the client can poll /jobs/<id> meanwhile).
    json_error(resp, 404, "no timeline for job " + std::to_string(id));
    return;
  }
  std::string out = "{\"version\":\"" + std::string(build_version()) + "\"";
  out += ",\"git_sha\":\"" + std::string(build_git_sha()) + "\"";
  out += ",\"sim_t\":" + fmt_num(sim_now());
  out += ",\"timeline\":" + obs::timeline_json(t) + "}\n";
  resp.content_type = "application/json";
  resp.body = std::move(out);
}

void MuriDaemon::handle_job_delete(JobId id, obs::HttpResponse& resp) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  const Time now = sim_now();
  if (queue_->cancel(id)) {
    // Never reached the engine: no job_submit exists, so record the
    // cancel for the audit trail only (replay treats an unknown id as a
    // no-op).
    log_.entry("job_cancel")
        .num("t", now)
        .integer("job", id)
        .str("reason", "client_queued");
    update_gauges();
    resp.content_type = "application/json";
    resp.body = "{\"job\":" + std::to_string(id) + ",\"cancelled\":true}\n";
    return;
  }
  JobStatus st;
  if (!engine_->job_status(id, st)) {
    json_error(resp, 404, "unknown job " + std::to_string(id));
    return;
  }
  if (st.phase == JobPhase::kFinished || st.phase == JobPhase::kCancelled) {
    json_error(resp, 409,
               std::string("job already ") + to_string(st.phase));
    return;
  }
  engine_->cancel(id, now, "client");
  update_gauges();
  loop_cv_.notify_all();
  resp.content_type = "application/json";
  resp.body = "{\"job\":" + std::to_string(id) + ",\"cancelled\":true}\n";
}

}  // namespace muri::service
