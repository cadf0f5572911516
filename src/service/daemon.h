// MuriDaemon — Muri as a long-running service (DESIGN.md "Service
// architecture").
//
// One process owns the whole stack: an HTTP front door (obs/http_exporter
// with the job API mounted as its handler), a bounded admission queue
// (admission.h), the execution engine (sim/engine.h), a scheduler
// instance, a DecisionLog with an optional durable WAL tap
// (recovery/durable), and a metrics registry. A single event-loop thread
// sequences everything that touches the engine:
//
//   wake on: submission / cancel (condition variable), the next predicted
//            job finish, the debounce window closing, or the fixed
//            round-interval fallback
//   then:    advance the engine to "now", drain the admission queue, and
//            run a scheduling round if the queue changed (debounced) or
//            the round timer expired
//
// Simulated time runs at `compression` × wall time (sim_now = sim_base +
// elapsed_wall × compression), so a Philly-style trace replays against
// the live daemon hundreds of times faster than real time while the
// engine's arithmetic stays in simulated seconds. `manual_time` unplugs
// the wall clock entirely: no event-loop thread starts and tests drive
// the daemon deterministically through step().
//
// Restart story: with a WAL configured, every decision record is durable
// (DurableSink, append_resume mode). On --resume the daemon replays the
// WAL to rebuild the job table (job_submit/job_restore give specs,
// job_progress the checkpointed iterations, finish/job_cancel retire
// ids), continues the simulated clock from the recovered state, resumes
// round numbering, and re-admits unfinished jobs with their checkpointed
// progress —
// an accepted job survives any crash that happens after its job_submit
// record hit the WAL. Graceful stop() closes that window: it stops
// admitting (503), drains the queue into the engine, checkpoints
// progress, writes daemon_stop, and fsyncs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "profiler/profiler.h"
#include "recovery/durable.h"
#include "scheduler/scheduler.h"
#include "service/admission.h"
#include "sim/engine.h"
#include "sim/exec_model.h"

namespace muri::service {

struct DaemonOptions {
  ClusterSpec cluster{};
  // Scheduler policy: muri-l (default), muri-s, fifo, srtf, srsf.
  std::string scheduler = "muri-l";
  // Simulated seconds between fallback scheduling rounds while jobs are
  // in the system (the batch simulator's schedule_interval).
  double round_interval_s = 360;
  // Wall milliseconds an event-triggered round waits to batch arrivals.
  int debounce_ms = 50;
  // Simulated seconds per wall second (time compression for replays).
  double compression = 1.0;
  std::size_t queue_capacity = 64;
  // Admission bound on the total backlog (engine active jobs + handoff
  // queue): submissions past it answer 429. 0 (default) = unbounded —
  // the handoff queue alone sheds only arrival bursts the event loop
  // cannot drain. Saturation load tests set this so an undersized
  // cluster produces real backpressure instead of an ever-growing
  // scheduler queue.
  int max_active_jobs = 0;
  // Advisory Retry-After (seconds) attached to 429 responses.
  int retry_after_s = 1;
  // Durable WAL for the DecisionLog; empty = in-memory log only.
  std::string wal_path;
  // Recover from an existing WAL instead of starting fresh.
  bool resume = false;
  recovery::DurableSinkOptions::Fsync fsync =
      recovery::DurableSinkOptions::Fsync::kInterval;
  // Honor MURI_CRASH_AT / MURI_CRASH_TORN on the WAL (CI crash legs).
  bool honor_crash_env = false;
  Duration restart_penalty_s = 30;
  ExecModelParams exec{};
  ResourceProfiler::Options profiler{};
  // HTTP knobs (0 port = ephemeral; limits passed to set_limits).
  int http_port = 0;
  std::size_t max_header_bytes = 8192;
  std::size_t max_body_bytes = 1 << 20;
  int read_timeout_ms = 5000;
  // Deterministic mode for tests: no event-loop thread, time only moves
  // through step().
  bool manual_time = false;

  // ---- Live SLO & health plane (DESIGN.md "Live SLO & health plane").
  // All of it follows the obs-off contract: with sampling disabled and no
  // SLO targets set, plans, DecisionLog, and trace bytes are bit-identical
  // to a daemon without the plane.
  //
  // Wall seconds between time-series samples; 0 (default) disables the
  // store and GET /metrics/history answers 404. In manual_time mode every
  // step() takes one sample regardless of cadence, so deterministic tests
  // control the series point-by-point.
  double sample_interval_s = 0;
  // Ring-buffer capacity per series (oldest points overwritten).
  std::size_t history_capacity = 600;
  // Declarative SLO targets (obs/slo.h); default: everything disabled.
  obs::SloConfig slo{};
  // Watchdog: /healthz flips to degraded when the event-loop heartbeat is
  // older than this many wall seconds. The loop normally beats at least
  // every 200ms (its sleep cap), so anything above ~1s means a wedged or
  // starved loop, not jitter.
  double watchdog_stall_s = 5.0;
  // ... or when jobs are active and no round has run for this factor ×
  // round_interval_s simulated seconds (an overdue round).
  double watchdog_round_factor = 4.0;

  // Per-job causal tracing (src/obs/jobtrace): record every job's span
  // timeline and serve GET /jobs/<id>/timeline. Follows the obs-off
  // contract — plans, DecisionLog, and trace bytes are bit-identical with
  // the plane on or off; disabling only turns the endpoint into a 404.
  bool jobtrace_enabled = true;
};

class MuriDaemon {
 public:
  explicit MuriDaemon(DaemonOptions options);
  ~MuriDaemon();

  MuriDaemon(const MuriDaemon&) = delete;
  MuriDaemon& operator=(const MuriDaemon&) = delete;

  // Builds the stack, recovers from the WAL when resuming, binds the
  // HTTP listener, and (unless manual_time) starts the event loop.
  // False with `error` on unknown scheduler, WAL damage, or bind failure.
  bool start(std::string* error);

  // Graceful shutdown: stop admitting, join the loop, advance to now,
  // drain the admission queue into the engine (every accepted job gets a
  // durable job_submit), checkpoint progress, write daemon_stop, fsync
  // and close the WAL, stop the listener. Idempotent.
  void stop(const char* reason = "stop");

  int port() const { return exporter_ ? exporter_->port() : 0; }
  bool running() const noexcept { return running_.load(); }

  // Simulated now (manual clock or compressed wall clock).
  Time sim_now() const;

  // manual_time only: advance the simulated clock by `sim_dt` seconds and
  // run the loop body once (advance, drain, round if due). Debounce does
  // not apply — a dirty queue schedules immediately.
  void step(double sim_dt);

  // In-memory decisions JSONL (what GET /decisions serves).
  std::string decisions_jsonl() const;

  obs::MetricsRegistry& metrics() noexcept { return registry_; }
  const DaemonOptions& options() const noexcept { return options_; }
  // Lifetime admission-queue statistics.
  AdmissionQueue::Stats queue_stats() const { return queue_->stats(); }

  // Live SLO plane accessors (null when the corresponding knob is off).
  const obs::TimeSeriesStore* history() const noexcept {
    return history_.get();
  }
  const obs::SloTracker* slo() const noexcept { return slo_.get(); }
  // Wall seconds since start() — the sampling/SLO clock domain.
  double wall_now() const;

  // Test hook: backdate the event-loop heartbeat by `stall_s` wall
  // seconds, as if the loop had been wedged that long. The next health
  // evaluation sees the stall; the next pump()/step() observes it as a
  // loop_stall_s sample and then recovers the heartbeat.
  void inject_loop_stall_for_test(double stall_s);

 private:
  struct Observer;
  // Watchdog verdict at one instant (computed under engine_mu_).
  struct Health {
    bool ok = true;
    double stall_s = 0;       // heartbeat age
    bool stalled = false;
    bool round_overdue = false;
    std::string reason;       // "" when ok
  };

  bool recover(std::string* error);
  bool handle(const obs::HttpRequest& req, obs::HttpResponse& resp);
  void handle_submit(const obs::HttpRequest& req, obs::HttpResponse& resp);
  void handle_job_get(JobId id, bool explain, obs::HttpResponse& resp);
  void handle_job_delete(JobId id, obs::HttpResponse& resp);
  void handle_list(obs::HttpResponse& resp);
  void handle_timeline(JobId id, obs::HttpResponse& resp);
  void handle_healthz(bool plain, obs::HttpResponse& resp);
  void handle_stats(obs::HttpResponse& resp);
  void handle_history(const std::string& query, obs::HttpResponse& resp);
  void loop();
  // One loop-body pass at simulated time `now`; engine_mu_ must be held.
  void pump(Time now, bool force_round);
  // Moves the engine to `t` event by event, so completions land on their
  // exact instants; engine_mu_ must be held.
  void advance_engine(Time t);
  // Hands a drained submission to the engine and writes its job_submit.
  void admit(const QueuedSubmission& s);
  void update_gauges();
  Time wall_to_sim(std::chrono::steady_clock::time_point t) const;
  // Watchdog evaluation; engine_mu_ must be held (counts transitions).
  Health evaluate_health();

  DaemonOptions options_;
  obs::MetricsRegistry registry_;
  obs::DecisionLog log_;
  std::unique_ptr<recovery::DurableSink> sink_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<ExecutionEngine> engine_;
  std::unique_ptr<AdmissionQueue> queue_;
  std::unique_ptr<obs::HttpExporter> exporter_;
  // Per-job span recorder; null when jobtrace_enabled is off.
  std::unique_ptr<obs::JobTraceLog> jobtrace_;

  // Live SLO plane. history_/slo_ are null when their knobs are off;
  // observer_ is always attached (it feeds registry summaries too).
  std::unique_ptr<obs::TimeSeriesStore> history_;
  std::unique_ptr<obs::SloTracker> slo_;
  std::unique_ptr<Observer> observer_;
  // Wall time (seconds since wall_base_) of the last loop pass / step;
  // atomic so handler threads read it without the engine mutex.
  std::atomic<double> heartbeat_wall_{0};
  double next_sample_wall_ = 0;     // engine_mu_
  bool watchdog_degraded_ = false;  // engine_mu_: transition edge state

  // Engine + log mutations (handler threads vs event loop).
  mutable std::mutex engine_mu_;
  // Event-loop wakeups.
  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};
  bool stopped_ = false;

  // Simulated clock.
  Time sim_base_ = 0;
  std::chrono::steady_clock::time_point wall_base_{};
  double manual_now_ = 0;

  // Round triggering (engine_mu_).
  Time last_round_sim_ = 0;
  bool round_pending_ = false;
  std::chrono::steady_clock::time_point round_due_{};

  // Admission bookkeeping (engine_mu_): id assignment + idempotency.
  JobId next_job_id_ = 0;
  std::map<std::string, JobId> name_to_id_;

  // Recovery scratch: specs rebuilt from the WAL, keyed by id.
  struct RecoveredJob {
    JobSpec spec;
    Time submit_time = 0;
    double done = 0;
    bool terminal = false;
  };
  std::map<JobId, RecoveredJob> recovered_;
  std::int64_t recovered_resumed_ = 0;
};

}  // namespace muri::service
