#include "obs/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "obs/provenance.h"

namespace muri::obs {

namespace {

constexpr double kUs = 1e-6;

// Track layout mirror of trace.h's machine_track(): machine m exports as
// pid 10 + m. Used only for fallback labels when metadata is absent.
constexpr int kMachineTrackBase = 10;

struct GroupAgg {
  int track = 0;
  int size = 0;
  bool degraded = false;
  double window_start = 0;
  double window_end = 0;
  double gamma_predicted = 0;
  std::array<double, kNumResources> busy{};
  // Per-member restart-gate overhead; the group-level stall is the max
  // (members share one gate, so each member's sum re-measures it).
  std::map<int, double> member_overhead;
};

double arg_number(const JsonValue& args, const char* key, double fallback) {
  const JsonValue& v = args.at(key);
  return v.is_number() ? v.number : fallback;
}

void merge_intervals(std::vector<BusyInterval>& intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const BusyInterval& a, const BusyInterval& b) {
              return a.start != b.start ? a.start < b.start : a.end < b.end;
            });
  std::vector<BusyInterval> merged;
  for (const BusyInterval& iv : intervals) {
    if (!merged.empty() && iv.start <= merged.back().end + 1e-9) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  intervals = std::move(merged);
}

void append_fixed(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out += buf;
}

void append_compact(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

}  // namespace

bool analyze_trace(const JsonValue& root, UtilizationReport& out,
                   std::string* error) {
  out = UtilizationReport{};
  if (!root.is_object()) {
    if (error != nullptr) *error = "trace root is not an object";
    return false;
  }
  const JsonValue& events = root.at("traceEvents");
  if (!events.is_array()) {
    if (error != nullptr) *error = "traceEvents missing or not an array";
    return false;
  }

  std::map<int, std::string> track_labels;
  // (run, track, resource) -> accumulated busy + raw intervals.
  std::map<std::tuple<int, int, int>, ResourceTimeline> timelines;
  // (run, group id): run epochs separate the reused ids of back-to-back
  // runs sharing one tracer.
  std::map<std::pair<int, std::int64_t>, GroupAgg> groups;
  double window_start = 0, window_end = 0;
  bool any_event = false;

  auto observe_window = [&](double start, double end) {
    if (!any_event) {
      window_start = start;
      window_end = end;
      any_event = true;
    } else {
      window_start = std::min(window_start, start);
      window_end = std::max(window_end, end);
    }
  };

  auto timeline_for = [&](int run, int track,
                          int resource) -> ResourceTimeline& {
    ResourceTimeline& tl = timelines[{run, track, resource}];
    tl.run = run;
    tl.track = track;
    tl.resource = static_cast<Resource>(resource);
    return tl;
  };

  for (const JsonValue& e : events.array) {
    if (!e.is_object()) {
      if (error != nullptr) *error = "trace event is not an object";
      return false;
    }
    const std::string& ph = e.at("ph").string;
    const std::string& name = e.at("name").string;
    const int pid = static_cast<int>(e.at("pid").number);
    const int tid = static_cast<int>(e.at("tid").number);
    const JsonValue& args = e.at("args");

    if (ph == "M") {
      if (name == "process_name" && args.at("name").is_string()) {
        track_labels[pid] = args.at("name").string;
      }
      continue;
    }
    if (!e.at("ts").is_number()) continue;
    const double ts = e.at("ts").number * kUs;

    if (ph == "X" && name == "run-stage") {
      // Simulator span: busy fractions + restart-gate overhead + group
      // incarnation tags stamped by the sim (sim/simulator.cpp).
      const double dur = e.at("dur").number * kUs;
      observe_window(ts, ts + dur);
      ++out.span_events;
      const int run = static_cast<int>(arg_number(args, "run", 0.0));
      const double overhead =
          std::clamp(arg_number(args, "overhead", 0.0), 0.0, dur);
      const double effective = dur - overhead;
      const double busy_fraction[kNumResources] = {
          arg_number(args, "busy_storage", 0.0),
          arg_number(args, "busy_cpu", 0.0),
          arg_number(args, "busy_gpu", 0.0),
          arg_number(args, "busy_net", 0.0),
      };
      for (int r = 0; r < kNumResources; ++r) {
        if (busy_fraction[r] <= 0) continue;
        ResourceTimeline& tl = timeline_for(run, pid, r);
        tl.busy_seconds += busy_fraction[r] * effective;
        if (effective > 0) {
          tl.intervals.push_back({ts + overhead, ts + dur});
        }
      }

      const double gid = arg_number(args, "group", -1.0);
      if (gid >= 0) {
        GroupAgg& g = groups[{run, static_cast<std::int64_t>(gid)}];
        if (g.size == 0) {
          g.track = pid;
          g.window_start = ts;
          g.window_end = ts + dur;
        } else {
          g.window_start = std::min(g.window_start, ts);
          g.window_end = std::max(g.window_end, ts + dur);
        }
        g.size = static_cast<int>(arg_number(args, "group_size", 1.0));
        g.degraded =
            g.degraded || arg_number(args, "degraded", 0.0) > 0;
        g.gamma_predicted = arg_number(args, "gamma_pred", 0.0);
        g.member_overhead[tid] += overhead;
        for (int r = 0; r < kNumResources; ++r) {
          g.busy[static_cast<size_t>(r)] += busy_fraction[r] * effective;
        }
      }
      continue;
    }

    if (ph == "X" && e.at("cat").string == "stage") {
      // Executor stage span: one resource fully busy for the span (the
      // lane blocks on the stage); tagged with its resource index.
      const double dur = e.at("dur").number * kUs;
      observe_window(ts, ts + dur);
      ++out.span_events;
      Resource r = Resource::kStorage;
      const double ri = arg_number(args, "resource", -1.0);
      if (ri >= 0 && ri < kNumResources) {
        r = static_cast<Resource>(static_cast<int>(ri));
      } else if (!parse_resource(name, r)) {
        continue;
      }
      const int run = static_cast<int>(arg_number(args, "run", 0.0));
      ResourceTimeline& tl = timeline_for(run, pid, static_cast<int>(r));
      tl.busy_seconds += dur;
      if (dur > 0) tl.intervals.push_back({ts, ts + dur});
      continue;
    }

    if (ph == "X" || ph == "i" || ph == "C") {
      const double dur =
          ph == "X" && e.at("dur").is_number() ? e.at("dur").number * kUs : 0;
      observe_window(ts, ts + dur);
    }
  }

  out.window_start = any_event ? window_start : 0;
  out.window_end = any_event ? window_end : 0;

  for (auto& [key, tl] : timelines) {
    merge_intervals(tl.intervals);
    const auto label = track_labels.find(tl.track);
    if (label != track_labels.end()) {
      tl.label = label->second;
    } else if (tl.track >= kMachineTrackBase) {
      tl.label = "machine " + std::to_string(tl.track - kMachineTrackBase);
    } else {
      tl.label = "track " + std::to_string(tl.track);
    }
    out.busy_seconds[static_cast<size_t>(tl.resource)] += tl.busy_seconds;
    out.timelines.push_back(std::move(tl));
  }

  double weight = 0, realized_sum = 0, error_sum = 0;
  for (const auto& [key, g] : groups) {
    GroupGammaStat stat;
    stat.run = key.first;
    stat.group = key.second;
    stat.track = g.track;
    stat.size = g.size;
    stat.degraded = g.degraded;
    stat.window_start = g.window_start;
    stat.window_end = g.window_end;
    stat.gamma_predicted = g.gamma_predicted;
    stat.busy_seconds = g.busy;
    for (const auto& [member, overhead] : g.member_overhead) {
      stat.stall_seconds = std::max(stat.stall_seconds, overhead);
    }
    const double wall = g.window_end - g.window_start;
    const double active_window =
        wall - std::clamp(stat.stall_seconds, 0.0, wall);
    int used = 0;
    double fraction_sum = 0;
    for (int r = 0; r < kNumResources; ++r) {
      const double busy = g.busy[static_cast<size_t>(r)];
      if (busy <= 0) continue;
      ++used;
      if (active_window > 0) {
        fraction_sum += std::min(busy / active_window, 1.0);
      }
    }
    if (used > 0 && active_window > 0) {
      stat.gamma_realized = fraction_sum / used;
      realized_sum += stat.gamma_realized * active_window;
      error_sum += stat.error() * active_window;
      weight += active_window;
      out.gamma_error_max_abs =
          std::max(out.gamma_error_max_abs, std::abs(stat.error()));
    }
    out.groups.push_back(std::move(stat));
  }
  if (weight > 0) {
    out.gamma_realized_mean = realized_sum / weight;
    out.gamma_error_mean = error_sum / weight;
  }

  return true;
}

std::string report_text(const UtilizationReport& report) {
  std::string out;
  char buf[256];
  const double window = report.window_end - report.window_start;

  std::snprintf(buf, sizeof(buf),
                "window: %.6f .. %.6f s  (%.6f s, %lld spans)\n",
                report.window_start, report.window_end, window,
                static_cast<long long>(report.span_events));
  out += buf;

  out += "\nutilization (busy seconds per run, track, and resource)\n";
  std::snprintf(buf, sizeof(buf), "  %4s %-18s %-8s %14s %8s %10s\n", "run",
                "track", "resource", "busy_s", "util", "intervals");
  out += buf;
  for (const ResourceTimeline& tl : report.timelines) {
    const double util = window > 0 ? tl.busy_seconds / window : 0;
    std::snprintf(buf, sizeof(buf), "  %4d %-18s %-8s %14.6f %7.1f%% %10zu\n",
                  tl.run, tl.label.c_str(),
                  std::string(to_string(tl.resource)).c_str(),
                  tl.busy_seconds, util * 100.0, tl.intervals.size());
    out += buf;
  }

  out += "\ngroups (realized vs predicted interleaving efficiency)\n";
  std::snprintf(buf, sizeof(buf),
                "  %4s %6s %6s %4s %4s %12s %10s %10s %10s %10s\n", "run",
                "group", "track", "size", "deg", "window_s", "stall_s",
                "pred", "realized", "error");
  out += buf;
  for (const GroupGammaStat& g : report.groups) {
    std::snprintf(
        buf, sizeof(buf),
        "  %4d %6lld %6d %4d %4d %12.6f %10.6f %10.6f %10.6f %+10.6f\n",
        g.run, static_cast<long long>(g.group), g.track, g.size,
        g.degraded ? 1 : 0, g.window_end - g.window_start, g.stall_seconds,
        g.gamma_predicted, g.gamma_realized, g.error());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  realized mean %.6f, error mean %+.6f, max |error| %.6f\n",
                report.gamma_realized_mean, report.gamma_error_mean,
                report.gamma_error_max_abs);
  out += buf;
  return out;
}

std::string report_csv(const UtilizationReport& report) {
  std::string out;
  const double window = report.window_end - report.window_start;

  out +=
      "table,run,track,label,resource,busy_seconds,utilization,intervals\n";
  for (const ResourceTimeline& tl : report.timelines) {
    out += "utilization,";
    out += std::to_string(tl.run);
    out += ',';
    out += std::to_string(tl.track);
    out += ',';
    out += tl.label;  // labels are plain identifiers; no quoting needed
    out += ',';
    out += to_string(tl.resource);
    out += ',';
    append_fixed(out, tl.busy_seconds);
    out += ',';
    append_fixed(out, window > 0 ? tl.busy_seconds / window : 0);
    out += ',';
    out += std::to_string(tl.intervals.size());
    out += '\n';
  }

  out += "\ntable,run,group,track,size,degraded,window_seconds,"
         "stall_seconds,gamma_predicted,gamma_realized,error\n";
  for (const GroupGammaStat& g : report.groups) {
    out += "group,";
    out += std::to_string(g.run);
    out += ',';
    out += std::to_string(g.group);
    out += ',';
    out += std::to_string(g.track);
    out += ',';
    out += std::to_string(g.size);
    out += ',';
    out += g.degraded ? '1' : '0';
    out += ',';
    append_fixed(out, g.window_end - g.window_start);
    out += ',';
    append_fixed(out, g.stall_seconds);
    out += ',';
    append_fixed(out, g.gamma_predicted);
    out += ',';
    append_fixed(out, g.gamma_realized);
    out += ',';
    append_fixed(out, g.error());
    out += '\n';
  }
  return out;
}

std::string report_json(const UtilizationReport& report) {
  std::string out;
  out += "{\"window\":{\"start\":";
  append_compact(out, report.window_start);
  out += ",\"end\":";
  append_compact(out, report.window_end);
  out += ",\"span_events\":";
  out += std::to_string(report.span_events);
  out += "},\"utilization\":[";
  bool first = true;
  for (const ResourceTimeline& tl : report.timelines) {
    if (!first) out += ',';
    first = false;
    out += "{\"run\":";
    out += std::to_string(tl.run);
    out += ",\"track\":";
    out += std::to_string(tl.track);
    out += ",\"label\":\"";
    append_json_escaped(out, tl.label);
    out += "\",\"resource\":\"";
    out += to_string(tl.resource);
    out += "\",\"busy_seconds\":";
    append_compact(out, tl.busy_seconds);
    out += ",\"intervals\":[";
    bool ifirst = true;
    for (const BusyInterval& iv : tl.intervals) {
      if (!ifirst) out += ',';
      ifirst = false;
      out += '[';
      append_compact(out, iv.start);
      out += ',';
      append_compact(out, iv.end);
      out += ']';
    }
    out += "]}";
  }
  out += "],\"groups\":[";
  first = true;
  for (const GroupGammaStat& g : report.groups) {
    if (!first) out += ',';
    first = false;
    out += "{\"run\":";
    out += std::to_string(g.run);
    out += ",\"group\":";
    out += std::to_string(g.group);
    out += ",\"track\":";
    out += std::to_string(g.track);
    out += ",\"size\":";
    out += std::to_string(g.size);
    out += ",\"degraded\":";
    out += g.degraded ? "true" : "false";
    out += ",\"window_start\":";
    append_compact(out, g.window_start);
    out += ",\"window_end\":";
    append_compact(out, g.window_end);
    out += ",\"stall_seconds\":";
    append_compact(out, g.stall_seconds);
    out += ",\"gamma_predicted\":";
    append_compact(out, g.gamma_predicted);
    out += ",\"gamma_realized\":";
    append_compact(out, g.gamma_realized);
    out += ",\"error\":";
    append_compact(out, g.error());
    out += ",\"busy_seconds\":{";
    for (int r = 0; r < kNumResources; ++r) {
      if (r > 0) out += ',';
      out += '"';
      out += to_string(static_cast<Resource>(r));
      out += "\":";
      append_compact(out, g.busy_seconds[static_cast<size_t>(r)]);
    }
    out += "}}";
  }
  out += "],\"summary\":{\"busy_seconds\":{";
  for (int r = 0; r < kNumResources; ++r) {
    if (r > 0) out += ',';
    out += '"';
    out += to_string(static_cast<Resource>(r));
    out += "\":";
    append_compact(out, report.busy_seconds[static_cast<size_t>(r)]);
  }
  out += "},\"gamma_realized_mean\":";
  append_compact(out, report.gamma_realized_mean);
  out += ",\"gamma_error_mean\":";
  append_compact(out, report.gamma_error_mean);
  out += ",\"gamma_error_max_abs\":";
  append_compact(out, report.gamma_error_max_abs);
  out += "}}";
  return out;
}

}  // namespace muri::obs
