// Observability tests: tracer ring semantics, clock domains, trace-JSON
// schema, metrics registry math and exposition format, recording from
// several threads (the TSan tier runs this binary), and the two contracts the
// instrumented modules promise — disabled obs leaves simulation results
// bit-identical, and the Muri registry metrics reproduce GroupingStats
// exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "job/model.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scheduler/baselines.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

namespace muri {
namespace {

using obs::JsonValue;
using obs::Labels;
using obs::MetricsRegistry;
using obs::Tracer;

// ---------------------------------------------------------------------------
// Tracer: rings, clock, export

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer t;
  ASSERT_FALSE(t.enabled());
  t.instant("e", "c", 1, 0);
  t.complete(0, 10, "s", "c", 1, 0);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0);
}

TEST(Trace, RingWraparoundKeepsNewestAndCountsDrops) {
  Tracer t(/*ring_capacity=*/8);
  t.set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    t.instant_at(i, "e", "c", 1, 0);
  }
  EXPECT_EQ(t.recorded(), 8u);
  EXPECT_EQ(t.dropped(), 12);

  JsonValue root;
  ASSERT_TRUE(obs::parse_json(t.chrome_trace_json(), root));
  std::set<std::int64_t> ts;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").string == "i") {
      ts.insert(static_cast<std::int64_t>(e.at("ts").number));
    }
  }
  // The surviving window is the most recent 8 events.
  const std::set<std::int64_t> want{12, 13, 14, 15, 16, 17, 18, 19};
  EXPECT_EQ(ts, want);
  EXPECT_NE(t.chrome_trace_json().find("\"droppedEvents\":12"),
            std::string::npos);
}

TEST(Trace, ClearResetsEventsButKeepsState) {
  Tracer t(8);
  t.set_enabled(true);
  for (int i = 0; i < 20; ++i) t.instant_at(i, "e", "c", 1, 0);
  t.clear();
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0);
  EXPECT_TRUE(t.enabled());
  t.instant_at(5, "e", "c", 1, 0);
  EXPECT_EQ(t.recorded(), 1u);
}

TEST(Trace, ManualClockSwitchIsPermanent) {
  Tracer t;
  EXPECT_FALSE(t.manual_time());
  t.set_manual_seconds(1.5);
  EXPECT_TRUE(t.manual_time());
  EXPECT_EQ(t.now_micros(), 1'500'000);
  t.set_manual_seconds(2.0);
  EXPECT_EQ(t.now_micros(), 2'000'000);
}

TEST(Trace, ExportPassesSchemaValidation) {
  Tracer t;
  t.set_enabled(true);
  t.name_track(obs::kSchedulerTrack, "scheduler");
  t.name_lane(obs::kSchedulerTrack, 3, "job 3");
  t.instant_at(10, "submit", "job", obs::kSchedulerTrack, 3,
               obs::TraceArgs("job", 3));
  t.complete(10, 25, "run-stage", "job", obs::machine_track(0), 3);
  std::string err;
  EXPECT_TRUE(obs::validate_chrome_trace(t.chrome_trace_json(), &err)) << err;
}

TEST(Trace, ValidatorRejectsMalformedInput) {
  EXPECT_FALSE(obs::validate_chrome_trace("not json"));
  EXPECT_FALSE(obs::validate_chrome_trace("{}"));
  EXPECT_FALSE(obs::validate_chrome_trace("{\"traceEvents\": []}"));
  EXPECT_FALSE(obs::validate_chrome_trace(
      "{\"traceEvents\": [{\"name\": \"e\", \"ph\": \"i\"}]}"));
  // A complete event without dur must fail; with it, pass.
  EXPECT_FALSE(obs::validate_chrome_trace(
      "{\"traceEvents\": [{\"name\": \"e\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": 0, \"ts\": 5}]}"));
  EXPECT_TRUE(obs::validate_chrome_trace(
      "{\"traceEvents\": [{\"name\": \"e\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": 0, \"ts\": 5, \"dur\": 2}]}"));
}

// Runs body(i) for every i in [0, n) on four threads, i strided by thread.
template <typename Body>
void run_on_four_threads(std::int64_t n, Body body) {
  std::vector<std::thread> threads;
  for (std::int64_t t = 0; t < 4; ++t) {
    threads.emplace_back([n, t, &body] {
      for (std::int64_t i = t; i < n; i += 4) body(i);
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(Trace, ConcurrentRecordingFromThreads) {
  Tracer t;
  t.set_enabled(true);
  run_on_four_threads(1000, [&](std::int64_t i) {
    t.instant_at(i, "work", "threads", 1, static_cast<int>(i % 4));
  });
  EXPECT_EQ(t.recorded(), 1000u);
  EXPECT_EQ(t.dropped(), 0);
}

TEST(Trace, ExportWhileRecordingIsSafe) {
  // The exporter contends with live recorders on the per-ring mutex; this
  // is the interleaving the TSan CI tier checks.
  Tracer t(1024);
  t.set_enabled(true);
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) t.instant_at(i, "w", "c", 1, 0);
  });
  for (int i = 0; i < 50; ++i) {
    const std::string json = t.chrome_trace_json();
    EXPECT_FALSE(json.empty());
  }
  writer.join();
  EXPECT_EQ(t.recorded(), 1024u);
  EXPECT_TRUE(obs::validate_chrome_trace(t.chrome_trace_json()));
}

// ---------------------------------------------------------------------------
// Metrics: scalar math, histogram edges, exposition format

TEST(Metrics, CounterAndGauge) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("c_total", "help");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Same (name, labels) -> same series.
  EXPECT_EQ(&reg.counter("c_total", "help"), &c);
  EXPECT_NE(&reg.counter("c_total", "help", Labels{{"k", "v"}}), &c);

  obs::Gauge& g = reg.gauge("g", "help");
  g.set(7);
  g.add(-2);
  EXPECT_DOUBLE_EQ(g.value(), 5);
}

TEST(Metrics, HistogramBucketEdgesAreLessOrEqual) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h", "help", {1.0, 2.0, 5.0});
  // Prometheus `le` convention: a value equal to a bound lands in that
  // bound's bucket.
  h.observe(0.5);  // bucket 0 (le=1)
  h.observe(1.0);  // bucket 0 (le=1), edge-inclusive
  h.observe(1.5);  // bucket 1 (le=2)
  h.observe(2.0);  // bucket 1 (le=2), edge-inclusive
  h.observe(5.0);  // bucket 2 (le=5)
  h.observe(9.0);  // bucket 3 (+Inf)
  EXPECT_EQ(h.count(), 6);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 9.0);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 1);
  EXPECT_GT(h.quantile(0.5), 0.0);
  EXPECT_LE(h.quantile(0.5), 2.0);
}

TEST(Metrics, SummaryTracksExactQuantiles) {
  MetricsRegistry reg;
  obs::Summary& s = reg.summary("s", "help");
  for (int i = 1; i <= 100; ++i) s.observe(i);
  EXPECT_EQ(s.count(), 100);
  EXPECT_DOUBLE_EQ(s.sum(), 5050);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_NEAR(s.percentile(50), 50.5, 1.0);
  EXPECT_NEAR(s.percentile(99), 99, 1.5);
}

TEST(Metrics, ConcurrentIncrementsFromThreads) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("c_total", "help");
  obs::Histogram& h = reg.histogram("h", "help", {10.0, 100.0});
  run_on_four_threads(1000, [&](std::int64_t i) {
    c.inc();
    h.observe(static_cast<double>(i % 200));
  });
  EXPECT_DOUBLE_EQ(c.value(), 1000);
  EXPECT_EQ(h.count(), 1000);
}

// A deliberately small shim: checks the exposition format line by line the
// way a Prometheus scraper tokenizes it.
void check_prometheus_parses(const std::string& text) {
  std::set<std::string> typed;
  size_t pos = 0;
  int series_lines = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      // "# TYPE <name> <kind>"
      const size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string kind = line.substr(sp + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "histogram" || kind == "summary")
          << line;
      typed.insert(line.substr(7, sp - 7));
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment line: " << line;
    // "<name>[{labels}] <float>"
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    size_t parsed = 0;
    (void)std::stod(line.substr(sp + 1), &parsed);  // throws on garbage
    EXPECT_EQ(parsed, line.size() - sp - 1) << line;
    std::string name = line.substr(0, line.find('{'));
    name = name.substr(0, name.find(' '));
    // Series must be declared: its name or its base name (stripping the
    // histogram/summary _bucket/_sum/_count suffix) carries a # TYPE.
    bool declared = typed.count(name) > 0;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (!declared && name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        declared = typed.count(name.substr(0, name.size() - s.size())) > 0;
      }
    }
    EXPECT_TRUE(declared) << "series before # TYPE: " << line;
    ++series_lines;
  }
  EXPECT_GT(series_lines, 0);
}

TEST(Metrics, PrometheusTextParses) {
  MetricsRegistry reg;
  reg.counter("jobs_total", "Jobs", Labels{{"sched", "Muri-L"}}).inc(3);
  reg.counter("jobs_total", "Jobs", Labels{{"sched", "SRSF"}}).inc(4);
  reg.gauge("queue_len", "Queue").set(17);
  obs::Histogram& h = reg.histogram("lat_seconds", "Latency", {0.1, 1.0});
  h.observe(0.05);
  h.observe(5.0);
  obs::Summary& s = reg.summary("round_seconds", "Rounds");
  s.observe(1);
  s.observe(2);

  const std::string text = reg.prometheus_text();
  check_prometheus_parses(text);
  // Histogram buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 2"), std::string::npos);
  // Labeled series render their label sets.
  EXPECT_NE(text.find("jobs_total{sched=\"Muri-L\"} 3"), std::string::npos);
}

TEST(Metrics, JsonSnapshotIsValidJson) {
  MetricsRegistry reg;
  reg.counter("c_total", "help").inc(2);
  reg.summary("s", "help").observe(1.5);
  JsonValue root;
  std::string err;
  ASSERT_TRUE(obs::parse_json(reg.json_snapshot(), root, &err)) << err;
  EXPECT_TRUE(root.is_object());
  EXPECT_TRUE(root.at("c_total").is_number());
  EXPECT_DOUBLE_EQ(root.at("c_total").number, 2);
  EXPECT_TRUE(root.at("s").is_object());
  EXPECT_DOUBLE_EQ(root.at("s").at("count").number, 1);
}

// ---------------------------------------------------------------------------
// Simulator integration: determinism, schema, no-op guarantee

Trace obs_trace() {
  Trace t;
  t.name = "obs";
  JobId id = 0;
  auto add = [&](ModelKind m, Time submit, double solo_secs) {
    Job j;
    j.id = id++;
    j.model = m;
    j.num_gpus = 1;
    j.submit_time = submit;
    j.profile = model_profile(m, 1);
    j.iterations = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(solo_secs / j.profile.iteration_time()));
    t.jobs.push_back(j);
  };
  // Long jobs first, short jobs later: the later arrivals preempt under
  // SRSF, so the trace is guaranteed to carry "preempt" instants.
  for (int c = 0; c < 2; ++c) {
    add(ModelKind::kShuffleNet, 0, 1200);
    add(ModelKind::kA2c, 0, 1200);
    add(ModelKind::kGpt2, 120, 120);
    add(ModelKind::kVgg16, 120, 120);
  }
  return t;
}

SimOptions obs_sim_options() {
  SimOptions opt;
  opt.cluster.num_machines = 2;
  opt.cluster.gpus_per_machine = 2;
  opt.schedule_interval = 60;
  opt.durations_known = true;
  // Machine faults + stragglers so the trace carries fault windows.
  opt.machine_faults.machine_mtbf_hours = 0.2;
  opt.machine_faults.machine_mttr_hours = 0.05;
  opt.machine_faults.straggler_rate_per_hour = 20.0;
  opt.machine_faults.straggler_duration_s = 300;
  opt.machine_faults.straggler_severity = 2.0;
  opt.machine_faults.seed = 7;
  return opt;
}

std::string run_traced(SimResult* result_out = nullptr) {
  Tracer tracer;
  tracer.set_enabled(true);
  SrsfScheduler sched;
  SimOptions opt = obs_sim_options();
  opt.tracer = &tracer;
  const SimResult r = run_simulation(obs_trace(), sched, opt);
  if (result_out != nullptr) *result_out = r;
  return tracer.chrome_trace_json();
}

TEST(SimTrace, FixedSeedRunsExportByteIdenticalJson) {
  const std::string a = run_traced();
  const std::string b = run_traced();
  EXPECT_EQ(a, b);
}

TEST(SimTrace, SchemaAndRequiredEventKinds) {
  SimResult r;
  const std::string json = run_traced(&r);
  std::string err;
  ASSERT_TRUE(obs::validate_chrome_trace(json, &err)) << err;

  JsonValue root;
  ASSERT_TRUE(obs::parse_json(json, root));
  std::set<std::string> names;
  std::set<int> pids;
  std::set<std::string> track_labels;
  for (const JsonValue& e : root.at("traceEvents").array) {
    names.insert(e.at("name").string);
    if (e.at("name").string == "process_name") {
      track_labels.insert(e.at("args").at("name").string);
    }
    if (e.at("ph").string != "M") {
      pids.insert(static_cast<int>(e.at("pid").number));
    }
  }
  // One track per machine plus the scheduler track, all labeled.
  EXPECT_TRUE(pids.count(obs::kSchedulerTrack));
  EXPECT_TRUE(pids.count(obs::machine_track(0)));
  EXPECT_TRUE(pids.count(obs::machine_track(1)));
  EXPECT_TRUE(track_labels.count("scheduler"));
  EXPECT_TRUE(track_labels.count("machine 0"));
  // At least one of each event kind the issue calls out: a scheduling
  // round, a job run span, a preemption, and a fault window.
  EXPECT_TRUE(names.count("round"));
  EXPECT_TRUE(names.count("run-stage"));
  EXPECT_TRUE(names.count("preempt"));
  EXPECT_TRUE(names.count("down") || names.count("straggler"));
  EXPECT_TRUE(names.count("submit"));
  EXPECT_TRUE(names.count("finish"));
  EXPECT_GT(r.machine_failures + static_cast<std::int64_t>(
                                     r.straggler_seconds > 0 ? 1 : 0),
            0);
}

TEST(SimTrace, AttachedObsLeavesSimResultBitIdentical) {
  auto run = [](bool with_obs) {
    Tracer tracer;
    tracer.set_enabled(true);
    MetricsRegistry reg;
    SrsfScheduler sched;
    SimOptions opt = obs_sim_options();
    if (with_obs) {
      opt.tracer = &tracer;
      opt.metrics = &reg;
    }
    return run_simulation(obs_trace(), sched, opt);
  };
  const SimResult plain = run(false);
  const SimResult traced = run(true);
  EXPECT_EQ(plain.avg_jct, traced.avg_jct);
  EXPECT_EQ(plain.p99_jct, traced.p99_jct);
  EXPECT_EQ(plain.makespan, traced.makespan);
  EXPECT_EQ(plain.avg_queue_length, traced.avg_queue_length);
  EXPECT_EQ(plain.jcts, traced.jcts);
  EXPECT_EQ(plain.finished_jobs, traced.finished_jobs);
  EXPECT_EQ(plain.faults, traced.faults);
  EXPECT_EQ(plain.restarts, traced.restarts);
  EXPECT_EQ(plain.machine_failures, traced.machine_failures);
  EXPECT_EQ(plain.evictions, traced.evictions);
  EXPECT_EQ(plain.straggler_seconds, traced.straggler_seconds);
  EXPECT_EQ(plain.degraded_group_seconds, traced.degraded_group_seconds);
}

TEST(SimTrace, FaultCountersRouteThroughRegistry) {
  MetricsRegistry reg;
  SrsfScheduler sched;
  SimOptions opt = obs_sim_options();
  opt.metrics = &reg;
  const SimResult r = run_simulation(obs_trace(), sched, opt);
  EXPECT_GT(r.machine_failures, 0);
  EXPECT_DOUBLE_EQ(
      reg.counter("muri_sim_machine_failures_total", "").value(),
      static_cast<double>(r.machine_failures));
  EXPECT_DOUBLE_EQ(reg.counter("muri_sim_evictions_total", "").value(),
                   static_cast<double>(r.evictions));
  EXPECT_DOUBLE_EQ(reg.counter("muri_sim_restarts_total", "").value(),
                   static_cast<double>(r.restarts));
  EXPECT_DOUBLE_EQ(reg.counter("muri_sim_job_faults_total", "").value(),
                   static_cast<double>(r.faults));
  EXPECT_DOUBLE_EQ(
      reg.counter("muri_sim_straggler_seconds_total", "").value(),
      r.straggler_seconds);
  EXPECT_DOUBLE_EQ(
      reg.counter("muri_sim_degraded_group_seconds_total", "").value(),
      r.degraded_group_seconds);
}

TEST(SimTrace, SharedRegistryAccumulatesButResultsStayPerRun) {
  // One registry across two runs: SimResult must report per-run deltas,
  // not the accumulated totals.
  MetricsRegistry reg;
  SimOptions opt = obs_sim_options();
  opt.metrics = &reg;
  SrsfScheduler s1;
  const SimResult r1 = run_simulation(obs_trace(), s1, opt);
  SrsfScheduler s2;
  const SimResult r2 = run_simulation(obs_trace(), s2, opt);
  EXPECT_EQ(r1.machine_failures, r2.machine_failures);
  EXPECT_DOUBLE_EQ(
      reg.counter("muri_sim_machine_failures_total", "").value(),
      static_cast<double>(r1.machine_failures + r2.machine_failures));
}

// ---------------------------------------------------------------------------
// Muri scheduler: GroupingStats mirrored into the registry

TEST(MuriMetrics, RegistryReproducesGroupingStatsExactly) {
  MetricsRegistry reg;
  Tracer tracer;
  tracer.set_enabled(true);
  MuriOptions mopt;
  mopt.durations_known = true;
  mopt.metrics = &reg;
  mopt.trace = &tracer;
  MuriScheduler muri(mopt);

  SimOptions opt = obs_sim_options();
  opt.machine_faults = FaultInjectorOptions{};  // clean run, pure scheduling
  opt.tracer = &tracer;
  const SimResult r = run_simulation(obs_trace(), muri, opt);
  EXPECT_EQ(r.finished_jobs, 8);

  const GroupingStats& cum = muri.cumulative_stats();
  EXPECT_GT(cum.matchings_run, 0);
  // Same values, same fold order, so the doubles are bit-identical.
  EXPECT_DOUBLE_EQ(
      reg.counter("muri_sched_graph_build_seconds_total", "").value(),
      cum.graph_build_seconds);
  EXPECT_DOUBLE_EQ(
      reg.counter("muri_sched_matching_seconds_total", "").value(),
      cum.matching_seconds);
  EXPECT_DOUBLE_EQ(reg.counter("muri_sched_gamma_evals_total", "").value(),
                   static_cast<double>(cum.cache_misses));
  EXPECT_DOUBLE_EQ(reg.counter("muri_sched_matchings_total", "").value(),
                   static_cast<double>(cum.matchings_run));
  EXPECT_DOUBLE_EQ(
      reg.counter("muri_sched_quotient_solves_total", "").value(),
      static_cast<double>(cum.quotient_solves));
  // Model-zoo profiles: every stage this trace matches has few classes.
  EXPECT_EQ(cum.quotient_solves, cum.matchings_run);
  EXPECT_EQ(cum.quotient_fallbacks, 0);
  EXPECT_GT(reg.counter("muri_sched_rounds_total", "").value(), 0.0);

  // The scheduler's round spans landed on its track.
  JsonValue root;
  ASSERT_TRUE(obs::parse_json(tracer.chrome_trace_json(), root));
  bool saw_round_span = false;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("name").string == "round" && e.at("ph").string == "X") {
      saw_round_span = true;
      EXPECT_EQ(static_cast<int>(e.at("pid").number), obs::kSchedulerTrack);
    }
  }
  EXPECT_TRUE(saw_round_span);
}

// ---------------------------------------------------------------------------
// JSON reader: error paths

TEST(Json, RejectsTruncatedInput) {
  // Every prefix of a valid document must fail cleanly, not crash or
  // accept.
  const std::string full =
      "{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": true, \"d\": null}}";
  JsonValue root;
  ASSERT_TRUE(obs::parse_json(full, root));
  for (std::size_t len = 0; len < full.size(); ++len) {
    JsonValue v;
    std::string err;
    EXPECT_FALSE(obs::parse_json(full.substr(0, len), v, &err))
        << "prefix of length " << len << " parsed";
    EXPECT_FALSE(err.empty());
  }
}

TEST(Json, RejectsBadEscapesAndTrailingGarbage) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(obs::parse_json("\"\\q\"", v, &err));  // unknown escape
  EXPECT_FALSE(obs::parse_json("\"\\u12\"", v));      // short \u escape
  EXPECT_FALSE(obs::parse_json("\"\\u12zz\"", v));    // non-hex \u escape
  EXPECT_FALSE(obs::parse_json("\"unterminated", v));
  EXPECT_FALSE(obs::parse_json("{\"a\": 1} trailing", v, &err));
  EXPECT_FALSE(obs::parse_json("[1, ]", v));
  EXPECT_FALSE(obs::parse_json("{\"a\" 1}", v));
  EXPECT_FALSE(obs::parse_json("nul", v));
  // The accepted escapes round-trip.
  ASSERT_TRUE(obs::parse_json("\"a\\\"b\\\\c\\n\\t\\u0041\"", v));
  EXPECT_EQ(v.string, "a\"b\\c\n\tA");
}

TEST(Json, DeepNestingFailsGracefully) {
  // Past the parser's depth cap the parse must return false instead of
  // overflowing the stack.
  const int depth = 300;
  std::string deep;
  for (int i = 0; i < depth; ++i) deep += '[';
  for (int i = 0; i < depth; ++i) deep += ']';
  JsonValue v;
  std::string err;
  EXPECT_FALSE(obs::parse_json(deep, v, &err));
  EXPECT_FALSE(err.empty());
  // A sane depth still parses.
  std::string ok;
  for (int i = 0; i < 64; ++i) ok += '[';
  for (int i = 0; i < 64; ++i) ok += ']';
  EXPECT_TRUE(obs::parse_json(ok, v));
}

// ---------------------------------------------------------------------------
// Tracer: args builder, counter events, log routing

TEST(Trace, TraceArgsAddAppendsAndDropsWhenFull) {
  obs::TraceArgs args("a", 1);
  args.add("b", 2).add("c", 3);
  EXPECT_STREQ(args.key[0], "a");
  EXPECT_STREQ(args.key[1], "b");
  EXPECT_STREQ(args.key[2], "c");
  EXPECT_EQ(args.value[2], 3);
  for (int i = 0; i < obs::TraceArgs::kCapacity + 4; ++i) {
    args.add("x", static_cast<double>(i));
  }
  // Full args silently drop; the last slot holds the first overflow fill.
  EXPECT_STREQ(args.key[obs::TraceArgs::kCapacity - 1], "x");
}

TEST(Trace, CounterEventsExportWithPhaseC) {
  Tracer t;
  t.set_enabled(true);
  t.counter(100, "busy", obs::machine_track(0),
            obs::TraceArgs("gpu", 0.5, "cpu", 0.25));
  JsonValue root;
  ASSERT_TRUE(obs::parse_json(t.chrome_trace_json(), root));
  bool saw = false;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").string != "C") continue;
    saw = true;
    EXPECT_EQ(e.at("name").string, "busy");
    EXPECT_EQ(static_cast<int>(e.at("pid").number), obs::machine_track(0));
    EXPECT_DOUBLE_EQ(e.at("args").at("gpu").number, 0.5);
    EXPECT_DOUBLE_EQ(e.at("args").at("cpu").number, 0.25);
  }
  EXPECT_TRUE(saw);
}

TEST(Trace, AttachedLogTracerMirrorsWarningsOnly) {
  Tracer t;
  t.set_enabled(true);
  obs::attach_log_tracer(&t);
  MURI_LOG(kWarn) << "watch out";
  MURI_LOG(kError) << "it broke";
  MURI_LOG(kInfo) << "below the hook threshold";  // level-filtered anyway
  obs::attach_log_tracer(nullptr);
  MURI_LOG(kWarn) << "after detach";

  JsonValue root;
  ASSERT_TRUE(obs::parse_json(t.chrome_trace_json(), root));
  int warns = 0, errors = 0;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("cat").string != "log") continue;
    const std::string& msg = e.at("args").at("message").string;
    if (e.at("name").string == "warn") {
      ++warns;
      EXPECT_EQ(msg, "watch out");
    } else if (e.at("name").string == "error") {
      ++errors;
      EXPECT_EQ(msg, "it broke");
    }
  }
  EXPECT_EQ(warns, 1);
  EXPECT_EQ(errors, 1);
}

TEST(Trace, RunEpochsAreSequentialPerTracer) {
  Tracer a;
  EXPECT_EQ(a.begin_run_epoch(), 1);
  EXPECT_EQ(a.begin_run_epoch(), 2);
  Tracer b;
  EXPECT_EQ(b.begin_run_epoch(), 1);
}

}  // namespace
}  // namespace muri
