// Structured event tracing — the "see the schedule" half of src/obs.
//
// A Tracer collects begin/end ("complete") spans and instant events into
// per-thread ring buffers and exports them as Chrome trace_event JSON, so
// a simulator run or a live executor window opens directly in
// chrome://tracing / Perfetto with per-machine tracks showing job stages,
// barriers, rounds, preemptions, and fault windows.
//
// Design constraints (DESIGN.md "Observability"):
//
//  - Disabled is free: every record call starts with one relaxed atomic
//    load and returns; a null Tracer* in an options struct costs nothing.
//  - Thread-safe without cross-thread contention: each recording thread
//    owns a ring buffer (registered on first use); the buffer's mutex is
//    only ever contended by a concurrent export, never by another
//    recorder, so steady-state recording is an uncontended lock plus a
//    struct write. This is the property that keeps recording from the
//    live executor's member threads TSan-clean.
//  - Bounded memory: rings have fixed capacity; once full the oldest
//    event is overwritten and `dropped()` counts what was lost. An
//    exported trace therefore always holds the *most recent* window.
//  - Two clock domains behind one `now_micros()`: wall time
//    (steady_clock since construction) for the live executor, and
//    manually-advanced simulated time for the simulator — the simulator
//    calls set_manual_seconds() as its event loop advances, which
//    switches the tracer to the manual domain permanently. Manual-domain
//    timestamps are a pure function of simulator state, so a fixed-seed
//    sim run exports byte-identical JSON.
//
// Event names and categories must be string literals (or otherwise
// outlive the tracer): events store the pointers, not copies.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace muri::obs {

// Well-known Chrome-trace "process" ids (tracks). Machines get their own
// track each so the schedule reads as one row per fault domain.
inline constexpr int kSchedulerTrack = 1;  // rounds, queue-level events
inline constexpr int kExecutorTrack = 2;   // live-executor stage/barrier spans
inline constexpr int kMachineTrackBase = 10;
inline constexpr int machine_track(int machine) noexcept {
  return kMachineTrackBase + machine;
}

// Numeric key/value pairs attached to an event. Four constructor slots
// cover the common cases; add() appends further pairs (up to kCapacity,
// enough for a ResourceVector of busy fractions plus group bookkeeping —
// what the analysis layer reads back without heuristics). Keys must be
// string literals; unset slots have null keys.
struct TraceArgs {
  static constexpr int kCapacity = 14;

  const char* key[kCapacity] = {};
  double value[kCapacity] = {};

  TraceArgs() = default;
  TraceArgs(const char* k1, double v1) {
    key[0] = k1;
    value[0] = v1;
  }
  TraceArgs(const char* k1, double v1, const char* k2, double v2)
      : TraceArgs(k1, v1) {
    key[1] = k2;
    value[1] = v2;
  }
  TraceArgs(const char* k1, double v1, const char* k2, double v2,
            const char* k3, double v3)
      : TraceArgs(k1, v1, k2, v2) {
    key[2] = k3;
    value[2] = v3;
  }
  TraceArgs(const char* k1, double v1, const char* k2, double v2,
            const char* k3, double v3, const char* k4, double v4)
      : TraceArgs(k1, v1, k2, v2, k3, v3) {
    key[3] = k4;
    value[3] = v4;
  }

  // Appends a pair into the first free slot; silently drops once full
  // (tracing must never abort the host).
  TraceArgs& add(const char* k, double v) {
    for (int i = 0; i < kCapacity; ++i) {
      if (key[i] == nullptr) {
        key[i] = k;
        value[i] = v;
        break;
      }
    }
    return *this;
  }
};

class Tracer;

// RAII wall-span: records a complete event from construction to
// destruction using the tracer's clock. In the manual (sim-time) domain
// the span collapses to zero duration at the current simulated instant —
// harmless, and still a deterministic marker.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* cat, int pid,
             int tid, TraceArgs args = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  const char* cat_;
  int pid_;
  int tid_;
  TraceArgs args_;
  std::int64_t start_us_;
};

class Tracer {
 public:
  // `ring_capacity` is the per-thread event budget; the default holds a
  // full testbed-trace simulation with room to spare.
  explicit Tracer(std::size_t ring_capacity = 1 << 16);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Recording gate. A disabled tracer drops every record call after one
  // relaxed load; metadata (track names) is still accepted so tracks are
  // labeled even if recording is toggled on mid-run.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Clock. now_micros() reads steady_clock relative to construction until
  // the first set_manual_seconds() call switches the tracer to the
  // manually-advanced (simulated-time) domain for good.
  std::int64_t now_micros() const noexcept;
  void set_manual_seconds(double seconds) noexcept;
  bool manual_time() const noexcept {
    return manual_mode_.load(std::memory_order_relaxed);
  }

  // Point event at `ts_us` (defaults to now).
  void instant(const char* name, const char* cat, int pid, int tid,
               TraceArgs args = {});
  void instant_at(std::int64_t ts_us, const char* name, const char* cat,
                  int pid, int tid, TraceArgs args = {});

  // Span with explicit timestamps — the simulator's bread and butter: it
  // knows a job's run window only once the job stops, so it records the
  // whole span retroactively in simulated micros.
  void complete(std::int64_t ts_us, std::int64_t dur_us, const char* name,
                const char* cat, int pid, int tid, TraceArgs args = {});

  // Counter sample ('C' phase): Perfetto renders each args key as a
  // stacked counter track under the pid. The utilization analytics emit
  // per-machine busy fractions this way.
  void counter(std::int64_t ts_us, const char* name, int pid,
               TraceArgs args = {});

  // Instant event carrying an owned text payload, exported as
  // args.message — the log-routing path: MURI_LOG lines land on the
  // timeline next to the spans they explain. Unlike name/cat, `message`
  // is copied.
  void instant_text(std::int64_t ts_us, const char* name, const char* cat,
                    int pid, int tid, const std::string& message);

  ScopedSpan span(const char* name, const char* cat, int pid, int tid,
                  TraceArgs args = {}) {
    return ScopedSpan(this, name, cat, pid, tid, args);
  }

  // Hands out 1-based run epochs. Several simulator runs may share one
  // tracer (the bench tables do); each run stamps its epoch on job-scoped
  // events so the analysis layer can separate runs whose simulated-time
  // windows and job ids overlap. Deterministic: a fresh tracer always
  // starts at 1.
  int begin_run_epoch() noexcept {
    return run_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Track labels, shown by Perfetto as process/thread names. Idempotent;
  // accepted even while disabled.
  void name_track(int pid, const std::string& name);
  void name_lane(int pid, int tid, const std::string& name);

  // Events currently held across all rings (drops excluded).
  std::size_t recorded() const;
  // Events lost to ring wraparound since construction (or clear()).
  std::int64_t dropped() const;

  // Chrome trace_event JSON ("traceEvents" array object form). Events are
  // merged from all rings and sorted by (ts, pid, tid, registration, seq),
  // so the output is a pure function of the recorded event set — in the
  // manual clock domain, byte-stable across identical runs.
  std::string chrome_trace_json() const;

  // Writes chrome_trace_json() to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

  // Drops all events, drop counts, and track names; keeps enabled state
  // and clock domain. Buffers stay registered with their threads.
  void clear();

 private:
  friend class ScopedSpan;

  struct Event {
    const char* name;
    const char* cat;
    char phase;  // 'X' complete, 'i' instant, 'C' counter
    int pid;
    int tid;
    std::int64_t ts_us;
    std::int64_t dur_us;
    std::uint64_t seq;
    TraceArgs args;
    std::string detail;  // optional owned text, exported as args.message
  };

  struct Ring {
    explicit Ring(std::size_t capacity) { events.reserve(capacity); }
    mutable std::mutex mu;  // recorder vs. exporter; never recorder pairs
    std::vector<Event> events;  // grows to capacity, then wraps
    std::size_t capacity = 0;
    std::size_t next = 0;  // overwrite cursor once full
    std::int64_t dropped = 0;
    std::uint64_t seq = 0;
  };

  void record(char phase, std::int64_t ts_us, std::int64_t dur_us,
              const char* name, const char* cat, int pid, int tid,
              const TraceArgs& args, const std::string* detail = nullptr);
  Ring& local_ring();

  const std::size_t ring_capacity_;
  const std::uint64_t generation_;  // distinguishes tracers at reused addresses
  std::atomic<bool> enabled_{false};
  std::atomic<int> run_epoch_{0};
  std::atomic<bool> manual_mode_{false};
  std::atomic<std::int64_t> manual_us_{0};
  std::chrono::steady_clock::time_point origin_;

  mutable std::mutex registry_mu_;  // rings_ vector + track names
  std::vector<std::unique_ptr<Ring>> rings_;
  std::map<int, std::string> track_names_;
  std::map<std::pair<int, int>, std::string> lane_names_;
};

// Routes MURI_LOG(kWarn)/(kError) messages into `tracer` as instant
// "warn"/"error" events (cat "log", scheduler track) via the global hook
// in common/logging. Pass nullptr to detach — required before the tracer
// dies. Messages below kWarn are never forwarded. The hook is process-
// wide; the last attach wins.
void attach_log_tracer(Tracer* tracer);

}  // namespace muri::obs
