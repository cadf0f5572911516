// Utilization analytics over exported Chrome traces — the "audit it" third
// of src/obs (trace.h records, metrics.h counts, this reconstructs).
//
// The simulator and executor tag every run/stage span with enough context
// (per-resource busy fractions, restart-gate overhead, group incarnation id
// and predicted γ) that analysis is pure arithmetic: no heuristics, no
// model re-evaluation. From one parsed trace this computes
//
//  - per-track (machine), per-resource busy/idle interval sets and busy
//    seconds (a span with busy fraction b on resource r contributes
//    b × (dur − overhead) seconds over its post-gate window);
//  - per group incarnation, the *realized* interleaving efficiency γ:
//    busy seconds over the active window, averaged across the resources
//    the group uses — the same averaging as interleave/group_efficiency,
//    so it is directly comparable to the schedule-time prediction stamped
//    on the spans (`gamma_pred`), and the per-group error realized −
//    predicted.
//
// Only what the trace alone carries is computed here. The per-job JCT
// breakdown is the engine's own (SimResult::jct_breakdown, written into
// every `finish` decision record), and the per-job wait-bucket timeline
// and service latencies are the jobtrace fold's (obs/jobtrace.h,
// `muri-report timeline` / `muri-report jobs`). Job lifecycle instants
// in the trace only widen the report window.
//
// The fluid execution model is work-conserving while the rotation schedule
// of Eq. 4 quantizes to stage boundaries, so on noise-free stage timings
// realized γ matches predicted γ to within a few percent and may slightly
// exceed it; perfectly complementary groups match exactly.
//
// All outputs are deterministic functions of the trace bytes: containers
// are keyed and iterated in sorted order and numbers are printed with a
// fixed format, so a fixed-seed run reports byte-identically every time.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/json.h"

namespace muri::obs {

// Half-open [start, end) wall window in seconds (trace timestamps / 1e6).
struct BusyInterval {
  double start = 0;
  double end = 0;
};

// Busy accounting for one (run, track, resource) triple. `track` is the
// trace pid (machine tracks are 10 + machine id; the executor track is 2).
// `run` is the run epoch stamped on the spans: several simulator runs may
// share one tracer with overlapping sim-time windows and reused ids, so
// every table is segmented by it (0 for spans without the tag).
struct ResourceTimeline {
  int run = 0;
  int track = 0;
  std::string label;  // track name from trace metadata, or "track <pid>"
  Resource resource = Resource::kStorage;
  // Fraction-weighted busy seconds: Σ busy_r × (dur − overhead).
  double busy_seconds = 0;
  // Merged wall windows with any activity on this resource; idle time is
  // the report window minus these.
  std::vector<BusyInterval> intervals;
};

// Realized-γ accounting for one group incarnation.
struct GroupGammaStat {
  int run = 0;
  std::int64_t group = 0;
  int track = 0;
  int size = 0;
  bool degraded = false;
  double window_start = 0;
  double window_end = 0;
  // Shared restart-gate stall at the head of the window, excluded from the
  // γ denominator.
  double stall_seconds = 0;
  double gamma_predicted = 0;
  double gamma_realized = 0;
  std::array<double, kNumResources> busy_seconds{};

  double error() const { return gamma_realized - gamma_predicted; }
};

struct UtilizationReport {
  // Wall window covered by the trace (earliest to latest event).
  double window_start = 0;
  double window_end = 0;
  std::int64_t span_events = 0;

  // Sorted by (run, track, resource).
  std::vector<ResourceTimeline> timelines;
  // Sorted by (run, group id).
  std::vector<GroupGammaStat> groups;

  // Aggregates. Busy seconds summed over tracks; γ means are weighted by
  // each group's active window, matching SimResult's averaging.
  std::array<double, kNumResources> busy_seconds{};
  double gamma_realized_mean = 0;
  double gamma_error_mean = 0;
  double gamma_error_max_abs = 0;

  bool empty() const { return timelines.empty() && groups.empty(); }
};

// Computes the report from a parsed Chrome trace (the object that
// Tracer::export_json produces). Returns false with a message in `error`
// when the value is not a trace; an event-free trace yields an empty
// report and succeeds.
bool analyze_trace(const JsonValue& root, UtilizationReport& out,
                   std::string* error);

// Renderers. Byte-stable for a given report.
std::string report_text(const UtilizationReport& report);
std::string report_csv(const UtilizationReport& report);
std::string report_json(const UtilizationReport& report);

}  // namespace muri::obs
