// Decision provenance (src/obs/provenance): the DecisionLog record
// format, the JSONL parser/validator, the explain queries, and the
// instrumentation contract — attaching a log never changes a plan or a
// SimResult, and fixed-seed logs are byte-identical across runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ios>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/rng.h"
#include "job/model.h"
#include "obs/provenance.h"
#include "recovery/durable.h"
#include "recovery/wal.h"
#include "runtime/executor.h"
#include "scheduler/baselines.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

namespace muri {
namespace {

using obs::DecisionLog;
using obs::DecisionRecord;

// ---------------------------------------------------------------------------
// DecisionLog mechanics: record bytes, rounds, dump shape.

// The bytes the number writers produced with snprintf: integers in
// (-1e15, 1e15) as %lld, every other double as %.17g.
std::string printf_double(double v) {
  char buf[64];
  if (v > -1e15 && v < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string printf_integer(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

TEST(DecisionLog, NumberBytesMatchPrintf) {
  const auto expect_same = [](double v) {
    std::string got;
    obs::append_json_double(got, v);
    ASSERT_EQ(got, printf_double(v)) << std::hexfloat << v;
  };
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double edges[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          0.1,
                          1.0 / 3.0,
                          denorm_min,
                          -denorm_min,
                          denorm_min * 12345,
                          std::numeric_limits<double>::min(),
                          std::nextafter(std::numeric_limits<double>::min(),
                                         0.0),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::lowest(),
                          std::numeric_limits<double>::epsilon(),
                          1e15,
                          -1e15,
                          std::nextafter(1e15, 0.0),
                          std::nextafter(-1e15, 0.0),
                          std::nextafter(1e15, 2e15),
                          1e15 - 1,
                          -(1e15 - 1),
                          1e15 + 0.5,
                          999999999999999.5,
                          1e16,
                          1e17,
                          1e21,
                          1e22,
                          9007199254740992.0,
                          9007199254740993.0,
                          1e-4,
                          9.9999999999999991e-5,
                          1e-5,
                          123456789012345678.0,
                          0.5,
                          2.5,
                          -2.5,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  for (const double v : edges) expect_same(v);

  std::mt19937_64 rng(20221);
  for (int i = 0; i < 1'200'000; ++i) {
    double v;
    switch (i % 4) {
      case 0: {  // any finite bit pattern: every exponent, subnormals too
        const std::uint64_t bits = rng();
        std::memcpy(&v, &bits, sizeof(v));
        if (!std::isfinite(v)) continue;
        break;
      }
      case 1:  // the plan-sized values the log carries: γ, times, scores
        v = std::ldexp(static_cast<double>(rng() >> 11), -53) *
            std::pow(10.0, static_cast<double>(rng() % 12));
        break;
      case 2:  // integral values on both sides of the 1e15 cut
        v = static_cast<double>(
                static_cast<std::int64_t>(rng() % 4'000'000'000'000'000ull) -
                2'000'000'000'000'000ll) /
            static_cast<double>(std::int64_t{1} << (rng() % 12));
        break;
      default:  // short decimals, where %.17g shows its trailing digits
        v = static_cast<double>(
                static_cast<std::int64_t>(rng() % 2'000'001) - 1'000'000) /
            1000.0;
        break;
    }
    expect_same(v);
  }

  const std::int64_t int_edges[] = {0,
                                    1,
                                    -1,
                                    9,
                                    10,
                                    -10,
                                    std::numeric_limits<std::int64_t>::max(),
                                    std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : int_edges) {
    std::string got;
    obs::append_json_integer(got, v);
    ASSERT_EQ(got, printf_integer(v));
  }
  for (int i = 0; i < 1'000'000; ++i) {
    const auto v = static_cast<std::int64_t>(rng() >> (rng() % 64));
    std::string got;
    obs::append_json_integer(got, i % 2 == 0 ? v : -v);
    ASSERT_EQ(got, printf_integer(i % 2 == 0 ? v : -v));
  }
  // Entry::integer writes the same bytes as the helper.
  DecisionLog log;
  log.entry("t").integer("k", -1234567890123LL).num("g", 0.1);
  EXPECT_NE(
      log.jsonl().find("\"k\":-1234567890123,\"g\":0.10000000000000001}"),
      std::string::npos)
      << log.jsonl();
}

TEST(DecisionLog, EmitsOneJsonObjectPerLine) {
  DecisionLog log;
  EXPECT_EQ(log.current_round(), 0);
  EXPECT_EQ(log.begin_round(), 1);
  log.entry("round_start")
      .str("scheduler", "Muri-L")
      .str("policy", "2D-LAS")
      .integer("queue", 3)
      .integer("capacity", 8);
  log.entry("group")
      .ids("jobs", {4, 7})
      .integer("gpus", 2)
      .str("mode", "interleaved")
      .num("gamma", 0.5)
      .raw("admitted", "true");
  EXPECT_EQ(log.records(), 2);
  EXPECT_EQ(log.jsonl(),
            "{\"type\":\"round_start\",\"round\":1,\"scheduler\":\"Muri-L\","
            "\"policy\":\"2D-LAS\",\"queue\":3,\"capacity\":8}\n"
            "{\"type\":\"group\",\"round\":1,\"jobs\":[4,7],\"gpus\":2,"
            "\"mode\":\"interleaved\",\"gamma\":0.5,\"admitted\":true}\n");
  EXPECT_EQ(log.begin_round(), 2);
  log.entry("round_end").integer("groups", 0);
  EXPECT_NE(log.jsonl().find("{\"type\":\"round_end\",\"round\":2"),
            std::string::npos);
  log.clear();
  EXPECT_EQ(log.records(), 0);
  EXPECT_EQ(log.current_round(), 0);
}

TEST(DecisionLog, NumberFormattingIsByteStable) {
  std::string out;
  obs::append_json_double(out, 3.0);
  out += ' ';
  obs::append_json_double(out, -17.0);
  out += ' ';
  obs::append_json_double(out, 0.5);
  EXPECT_EQ(out, "3 -17 0.5");
  // Non-representable decimals round-trip through %.17g identically on
  // every run — the property byte-stability rests on.
  std::string a, b;
  obs::append_json_double(a, 0.1 + 0.2);
  obs::append_json_double(b, 0.1 + 0.2);
  EXPECT_EQ(a, b);
}

TEST(DecisionLog, EscapesStrings) {
  DecisionLog log;
  log.begin_round();
  log.entry("deferred").ids("jobs", {1}).str("reason", "a\"b\\c\nd");
  EXPECT_NE(log.jsonl().find("\"reason\":\"a\\\"b\\\\c\\nd\""),
            std::string::npos);
  EXPECT_TRUE(obs::validate_decision_log(log.jsonl()));
}

TEST(DecisionLog, SharedEscaperRoundTripsThroughTheParser) {
  // Quote, backslash, \n, \r, \t and two other control bytes (split
  // literals keep "\x01" from swallowing the next hex digit).
  const std::string raw = std::string("q\"b\\s\nr\rt\tc\x01") + "e\x1f" + "z";
  std::string escaped;
  obs::append_json_escaped(escaped, raw);
  EXPECT_EQ(escaped, "q\\\"b\\\\s\\nr\\u000dt\\tc\\u0001e\\u001fz");
  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_json("\"" + escaped + "\"", parsed, &error))
      << error;
  ASSERT_TRUE(parsed.is_string());
  EXPECT_EQ(parsed.string, raw);
}

// ---------------------------------------------------------------------------
// Parse + validate.

TEST(DecisionLog, ValidatorAcceptsItsOwnOutputAndRejectsGarbage) {
  DecisionLog log;
  log.begin_round();
  log.entry("placement")
      .num("t", 360)
      .ids("jobs", {0, 1})
      .integer("gpus", 2)
      .str("mode", "interleaved")
      .ints("machines", {0})
      .integer("owner", 0);
  std::string error;
  EXPECT_TRUE(obs::validate_decision_log(log.jsonl(), &error)) << error;

  EXPECT_FALSE(obs::validate_decision_log("{not json}\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);

  // Well-formed JSON, wrong shape: missing "round".
  EXPECT_FALSE(
      obs::validate_decision_log("{\"type\":\"placement\"}\n", &error));
  EXPECT_NE(error.find("round"), std::string::npos);

  // Known type missing a required field.
  EXPECT_FALSE(obs::validate_decision_log(
      "{\"type\":\"group\",\"round\":1,\"jobs\":[1]}\n", &error));
  EXPECT_NE(error.find("group"), std::string::npos);

  // Unknown types are forward-compatible.
  EXPECT_TRUE(obs::validate_decision_log(
      "{\"type\":\"future_thing\",\"round\":2,\"extra\":[1,2]}\n", &error))
      << error;
}

TEST(DecisionLog, ParserKeepsRawLinesAndSkipsBlanks) {
  std::vector<DecisionRecord> records;
  const std::string dump =
      "{\"type\":\"round_end\",\"round\":1,\"groups\":0,\"admitted\":0,"
      "\"rejected\":0}\n\n"
      "{\"type\":\"fault\",\"round\":1,\"t\":5,\"job\":3,\"reason\":\"x\"}\n";
  ASSERT_TRUE(obs::parse_decision_log(dump, records));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].raw,
            "{\"type\":\"fault\",\"round\":1,\"t\":5,\"job\":3,"
            "\"reason\":\"x\"}");
  EXPECT_EQ(records[1].value.at("job").number, 3);
}

// ---------------------------------------------------------------------------
// Torn-tail tolerance: a crashed writer leaves a half-written final line;
// opting in via `tail_warning` drops it with a diagnostic instead of
// failing the whole dump. Corruption anywhere else still fails.

TEST(DecisionLog, ParserToleratesATornFinalLine) {
  const std::string good =
      "{\"type\":\"round_end\",\"round\":1,\"groups\":0,\"admitted\":0,"
      "\"rejected\":0}\n";
  const std::string dump = good + "{\"type\":\"fault\",\"round\":1,\"t\":";

  // Strict mode (no tail_warning): the torn line is an error.
  std::vector<DecisionRecord> records;
  std::string error;
  EXPECT_FALSE(obs::parse_decision_log(dump, records, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);

  // Tolerant mode: valid prefix survives, warning carries the byte
  // offset where it ends.
  records.clear();
  std::string tail_warning;
  ASSERT_TRUE(obs::parse_decision_log(dump, records, &error, &tail_warning));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(tail_warning.find("byte offset " + std::to_string(good.size())),
            std::string::npos);
  EXPECT_NE(tail_warning.find("final line 2"), std::string::npos);

  // A clean dump clears the warning.
  ASSERT_TRUE(obs::parse_decision_log(good, records, &error, &tail_warning));
  EXPECT_TRUE(tail_warning.empty());

  // Garbage *before* a valid line is not a torn tail — still an error.
  records.clear();
  EXPECT_FALSE(obs::parse_decision_log("{oops\n" + good, records, &error,
                                       &tail_warning));
}

TEST(DecisionLog, ValidatorReportsASchemaBrokenFinalRecordAsWarning) {
  const std::string good =
      "{\"type\":\"round_end\",\"round\":1,\"groups\":0,\"admitted\":0,"
      "\"rejected\":0}\n";
  // Parses as JSON but is schema-broken (fault without job/reason) — the
  // shape a torn write can take when the line break survived.
  const std::string dump = good + "{\"type\":\"fault\",\"round\":1}\n";

  std::string error;
  EXPECT_FALSE(obs::validate_decision_log(dump, &error));
  EXPECT_NE(error.find("fault"), std::string::npos);

  std::string tail_warning;
  EXPECT_TRUE(obs::validate_decision_log(dump, &error, &tail_warning));
  EXPECT_NE(tail_warning.find("byte offset " + std::to_string(good.size())),
            std::string::npos);

  // The same broken record mid-file stays fatal even in tolerant mode.
  EXPECT_FALSE(obs::validate_decision_log(
      "{\"type\":\"fault\",\"round\":1}\n" + good, &error, &tail_warning));
}

// ---------------------------------------------------------------------------
// Scheduler instrumentation.

std::vector<JobView> contended_queue(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<JobView> queue;
  for (int i = 0; i < n; ++i) {
    JobView v;
    v.id = i;
    v.num_gpus = 1;
    v.submit_time = rng.uniform(0, 500);
    v.attained_service = rng.uniform(0, 2000);
    v.remaining_time = rng.uniform(10, 3000);
    v.measured = model_profile(
        kAllModels[static_cast<size_t>(rng.uniform_int(0, kNumModels - 1))],
        1);
    queue.push_back(v);
  }
  return queue;
}

// A contended queue spread over several GPU buckets: demands cycle
// 1/2/4/8, and one lone 3-GPU job makes a single-member bucket.
std::vector<JobView> multi_bucket_queue(int n, std::uint64_t seed) {
  constexpr int kDemands[4] = {1, 2, 4, 8};
  auto queue = contended_queue(n + 1, seed);
  for (int i = 0; i < n; ++i) {
    JobView& v = queue[static_cast<size_t>(i)];
    v.num_gpus = kDemands[i % 4];
    v.measured = model_profile(kAllModels[static_cast<size_t>(i) % kNumModels],
                               v.num_gpus);
  }
  queue.back().num_gpus = 3;
  queue.back().measured = model_profile(kAllModels[0], 3);
  return queue;
}

bool same_plan(const std::vector<PlannedGroup>& a,
               const std::vector<PlannedGroup>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].members != b[i].members || a[i].num_gpus != b[i].num_gpus ||
        a[i].mode != b[i].mode || a[i].slots != b[i].slots ||
        a[i].offsets != b[i].offsets ||
        a[i].planned_period != b[i].planned_period ||
        a[i].gamma != b[i].gamma) {
      return false;
    }
  }
  return true;
}

int count_type(const std::vector<DecisionRecord>& records,
               const std::string& type) {
  int n = 0;
  for (const auto& r : records) {
    if (r.value.at("type").string == type) ++n;
  }
  return n;
}

TEST(Provenance, MuriRoundLogsTheWholeStoryWithoutChangingThePlan) {
  const auto queue = contended_queue(24, 7);
  SchedulerContext ctx;
  ctx.total_gpus = 8;
  ctx.gpus_per_machine = 8;

  MuriScheduler bare{MuriOptions{}};
  const auto want = bare.schedule(queue, ctx);

  DecisionLog log;
  MuriOptions opt;
  opt.decisions = &log;
  MuriScheduler logged(opt);
  const auto got = logged.schedule(queue, ctx);
  EXPECT_TRUE(same_plan(want, got));

  std::string error;
  ASSERT_TRUE(obs::validate_decision_log(log.jsonl(), &error)) << error;
  std::vector<DecisionRecord> records;
  ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), records));

  EXPECT_EQ(count_type(records, "round_start"), 1);
  EXPECT_EQ(count_type(records, "priority"), 1);
  EXPECT_GE(count_type(records, "bucket"), 1);
  EXPECT_GE(count_type(records, "match_round"), 1);
  EXPECT_GE(count_type(records, "group"), 1);
  EXPECT_EQ(count_type(records, "round_end"), 1);

  // The matching evidence must include rejected alternatives: a complete
  // γ graph over b candidates has ~b²/2 edges and at most b/2 can win.
  bool saw_rejected_edge = false;
  for (const auto& r : records) {
    if (r.value.at("type").string != "match_round") continue;
    EXPECT_GE(r.value.at("nodes").array.size(), 2u);
    if (r.value.at("edges").array.size() > r.value.at("matched").array.size()) {
      saw_rejected_edge = true;
    }
  }
  EXPECT_TRUE(saw_rejected_edge);

  // At least one admitted multi-member group, and its jobs appear in the
  // emitted plan as a group.
  bool saw_multi = false;
  for (const auto& r : records) {
    if (r.value.at("type").string != "group") continue;
    if (r.value.at("jobs").array.size() > 1 && r.value.at("admitted").boolean) {
      saw_multi = true;
      EXPECT_GT(r.value.at("gamma").number, 0.0);
    }
  }
  EXPECT_TRUE(saw_multi);
}

TEST(Provenance, MuriBucketRecordsCoverEveryBucket) {
  // 153 GPUs of demand on 40: contended, and all within the candidate
  // prefix (4 × 40 GPUs), so every bucket, the lone one too, is grouped.
  const auto queue = multi_bucket_queue(40, 5);
  SchedulerContext ctx;
  ctx.total_gpus = 40;
  ctx.gpus_per_machine = 8;

  for (const bool blossom : {true, false}) {
    SCOPED_TRACE(blossom ? "blossom" : "noblossom");
    DecisionLog log;
    MuriOptions opt;
    opt.use_blossom = blossom;
    opt.decisions = &log;
    MuriScheduler s(opt);
    s.schedule(queue, ctx);

    std::vector<DecisionRecord> records;
    ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), records));
    int buckets = 0;
    bool saw_single = false;
    bool saw_multi = false;
    for (const auto& r : records) {
      if (r.value.at("type").string != "bucket") continue;
      ++buckets;
      // Each bucket is grouped whole: no component count is logged.
      EXPECT_EQ(r.value.object.count("components"), 0u);
      const size_t jobs = r.value.at("jobs").array.size();
      (jobs == 1 ? saw_single : saw_multi) = true;
    }
    EXPECT_GE(buckets, 4);
    EXPECT_TRUE(saw_single);
    EXPECT_TRUE(saw_multi);
    const int match_rounds = count_type(records, "match_round");
    if (blossom) {
      EXPECT_GE(match_rounds, buckets - 1);
    } else {
      EXPECT_EQ(match_rounds, 0);
    }
    for (const auto& r : records) {
      if (r.value.at("type").string != "match_round") continue;
      EXPECT_EQ(r.value.object.count("component"), 0u);
    }
  }
}

TEST(Provenance, MuriLogIsByteStableAcrossRuns) {
  const auto queue = multi_bucket_queue(40, 11);
  SchedulerContext ctx;
  ctx.total_gpus = 40;
  ctx.gpus_per_machine = 8;

  const auto dump = [&] {
    DecisionLog log;
    MuriOptions opt;
    opt.decisions = &log;
    MuriScheduler s(opt);
    s.schedule(queue, ctx);
    s.schedule(queue, ctx);  // two rounds: round ids must advance too
    return log.jsonl();
  };
  const std::string first = dump();
  EXPECT_EQ(first, dump());
  EXPECT_NE(first.find("\"round\":2"), std::string::npos);
  // Several buckets, each logged in ascending-demand order.
  EXPECT_NE(first.find("{\"type\":\"bucket\",\"round\":2,\"gpus\":8,"),
            std::string::npos);
}

TEST(Provenance, BaselineRoundsLogPriorityAndAdmission) {
  const auto queue = contended_queue(12, 3);
  SchedulerContext ctx;
  ctx.total_gpus = 4;
  ctx.gpus_per_machine = 4;

  DecisionLog log;
  FifoScheduler fifo;
  fifo.set_decision_log(&log);
  const auto plan = fifo.schedule(queue, ctx);
  EXPECT_FALSE(plan.empty());

  std::string error;
  ASSERT_TRUE(obs::validate_decision_log(log.jsonl(), &error)) << error;
  std::vector<DecisionRecord> records;
  ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), records));
  EXPECT_EQ(count_type(records, "round_start"), 1);
  EXPECT_EQ(count_type(records, "priority"), 1);
  EXPECT_EQ(count_type(records, "round_end"), 1);
  // 12 one-GPU jobs on 4 GPUs: groups beyond the budget are rejections.
  int rejected = 0;
  for (const auto& r : records) {
    if (r.value.at("type").string == "group" &&
        !r.value.at("admitted").boolean) {
      ++rejected;
      EXPECT_EQ(r.value.at("reason").string, "gpu_budget");
    }
  }
  EXPECT_GT(rejected, 0);
  for (const auto& r : records) {
    if (r.value.at("type").string == "round_start") {
      EXPECT_EQ(r.value.at("policy").string, "FIFO");
    }
  }
}

// ---------------------------------------------------------------------------
// Simulator instrumentation.

Job sim_job(JobId id, ModelKind m, Time submit, double solo_secs) {
  Job j;
  j.id = id;
  j.model = m;
  j.num_gpus = 1;
  j.submit_time = submit;
  j.profile = model_profile(m, 1);
  j.iterations = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(solo_secs / j.profile.iteration_time()));
  return j;
}

Trace contended_trace() {
  Trace t;
  t.name = "provenance";
  for (int i = 0; i < 8; ++i) {
    t.jobs.push_back(sim_job(i, kAllModels[static_cast<size_t>(i) % 8],
                             i * 30.0, 900));
  }
  return t;
}

SimOptions tiny_cluster() {
  SimOptions opt;
  opt.cluster.num_machines = 1;
  opt.cluster.gpus_per_machine = 2;
  opt.schedule_interval = 60;
  opt.restart_penalty = 5;
  return opt;
}

TEST(Provenance, SimResultIsBitIdenticalWithAndWithoutLog) {
  const Trace t = contended_trace();

  MuriScheduler bare{MuriOptions{}};
  const SimResult want = run_simulation(t, bare, tiny_cluster());

  DecisionLog log;
  SimOptions opt = tiny_cluster();
  opt.decisions = &log;
  MuriScheduler logged{MuriOptions{}};
  const SimResult got = run_simulation(t, logged, opt);

  EXPECT_EQ(want.avg_jct, got.avg_jct);
  EXPECT_EQ(want.p99_jct, got.p99_jct);
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.jcts, got.jcts);
  EXPECT_EQ(want.finished_jobs, got.finished_jobs);
  EXPECT_EQ(want.restarts, got.restarts);
  EXPECT_EQ(want.avg_group_gamma_predicted, got.avg_group_gamma_predicted);
  EXPECT_EQ(want.avg_group_gamma_realized, got.avg_group_gamma_realized);
  EXPECT_EQ(want.scheduler_invocations, got.scheduler_invocations);

  // The log itself carries both halves of the story: scheduler records
  // (the simulator attaches the sink to the scheduler) and outcome
  // records with simulated timestamps.
  std::string error;
  ASSERT_TRUE(obs::validate_decision_log(log.jsonl(), &error)) << error;
  std::vector<DecisionRecord> records;
  ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), records));
  EXPECT_GE(count_type(records, "round_start"),
            static_cast<int>(want.scheduler_invocations));
  EXPECT_GE(count_type(records, "placement"), 1);
  EXPECT_GE(count_type(records, "restart") + count_type(records, "preempt"),
            static_cast<int>(want.restarts) > 0 ? 1 : 0);
}

TEST(Provenance, SimulatorLogIsByteStableAtFixedSeed) {
  const Trace t = contended_trace();
  const auto dump_once = [&] {
    DecisionLog log;
    SimOptions opt = tiny_cluster();
    opt.decisions = &log;
    MuriScheduler s{MuriOptions{}};
    run_simulation(t, s, opt);
    return log.jsonl();
  };
  EXPECT_EQ(dump_once(), dump_once());
}

// ---------------------------------------------------------------------------
// Explain queries.

TEST(Provenance, ExplainJobReconstructsGroupingEvidence) {
  const Trace t = contended_trace();
  DecisionLog log;
  SimOptions opt = tiny_cluster();
  opt.decisions = &log;
  MuriScheduler s{MuriOptions{}};
  run_simulation(t, s, opt);

  std::vector<DecisionRecord> records;
  ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), records));

  // Pick a job from an admitted multi-member group, remembering the round
  // the grouping decision was made in.
  std::int64_t job = -1;
  std::int64_t grouped_round = -1;
  for (const auto& r : records) {
    if (r.value.at("type").string == "group" &&
        r.value.at("jobs").array.size() > 1 &&
        r.value.at("admitted").boolean) {
      job = static_cast<std::int64_t>(r.value.at("jobs").array[0].number);
      grouped_round = static_cast<std::int64_t>(r.value.at("round").number);
      break;
    }
  }
  ASSERT_GE(job, 0) << "no multi-member group formed";

  const std::string text = obs::explain_job_text(records, job);
  ASSERT_FALSE(text.empty());
  // The reconstruction names the round the job was grouped in, the score,
  // the winning merge with its γ, and a rejected alternative pairing.
  EXPECT_NE(text.find("round " + std::to_string(grouped_round) + ":"),
            std::string::npos);
  EXPECT_NE(text.find("queued at position"), std::string::npos);
  EXPECT_NE(text.find("merged"), std::string::npos);
  EXPECT_NE(text.find("rejected"), std::string::npos);
  EXPECT_NE(text.find("gamma="), std::string::npos);
  EXPECT_NE(text.find("group admitted"), std::string::npos);

  const std::string json = obs::explain_job_json(records, job);
  ASSERT_FALSE(json.empty());
  obs::JsonValue root;
  std::string err;
  ASSERT_TRUE(obs::parse_json(json, root, &err)) << err;
  EXPECT_EQ(static_cast<std::int64_t>(root.at("job").number), job);
  EXPECT_GE(root.at("rounds").array.size(), 1u);

  // Queries for ids the log never saw return "".
  EXPECT_TRUE(obs::explain_job_text(records, 424242).empty());
  EXPECT_TRUE(obs::explain_job_json(records, 424242).empty());
}

TEST(Provenance, ExplainRoundRendersEveryRecordOfTheRound) {
  const Trace t = contended_trace();
  DecisionLog log;
  SimOptions opt = tiny_cluster();
  opt.decisions = &log;
  MuriScheduler s{MuriOptions{}};
  run_simulation(t, s, opt);

  std::vector<DecisionRecord> records;
  ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), records));

  const std::string text = obs::explain_round_text(records, 1);
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("round 1 decisions"), std::string::npos);
  EXPECT_NE(text.find("queue of"), std::string::npos);

  const std::string json = obs::explain_round_json(records, 1);
  obs::JsonValue root;
  std::string err;
  ASSERT_TRUE(obs::parse_json(json, root, &err)) << err;
  EXPECT_EQ(root.at("round").number, 1);
  std::int64_t in_round_1 = 0;
  for (const auto& r : records) {
    if (static_cast<std::int64_t>(r.value.at("round").number) == 1) {
      ++in_round_1;
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(root.at("records").array.size()),
            in_round_1);

  EXPECT_TRUE(obs::explain_round_text(records, 999999).empty());
  EXPECT_TRUE(obs::explain_round_json(records, 999999).empty());
}

TEST(Provenance, ExplainOverAWalSaysTheExplanationIsAbsent) {
  // A durable run of the contended trace: its WAL keeps the state tier.
  const std::string path =
      testing::TempDir() + "muri_provenance_explain_absent.wal";
  DecisionLog log;
  {
    recovery::DurableSinkOptions sink_options;
    sink_options.fsync = recovery::DurableSinkOptions::Fsync::kNone;
    recovery::DurableSink sink(path, sink_options);
    log.set_sink(&sink);
    SimOptions opt = tiny_cluster();
    opt.decisions = &log;
    MuriScheduler s{MuriOptions{}};
    run_simulation(contended_trace(), s, opt);
    log.set_sink(nullptr);
    sink.close();
    ASSERT_TRUE(sink.ok()) << sink.error();
  }
  recovery::WalReadResult decoded;
  ASSERT_TRUE(recovery::read_wal_file(path, decoded));
  std::string wal_jsonl;
  for (const recovery::WalFrame& frame : decoded.frames) {
    wal_jsonl += frame.payload + "\n";
  }
  std::vector<DecisionRecord> wal;
  std::vector<DecisionRecord> full;
  ASSERT_TRUE(obs::parse_decision_log(wal_jsonl, wal));
  ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), full));
  ASSERT_EQ(count_type(wal, "match_round"), 0);
  ASSERT_GE(count_type(wal, "round_start"), 1);
  ASSERT_GE(count_type(wal, "placement"), 1);
  std::int64_t job = -1;
  for (const auto& r : wal) {
    if (r.value.at("type").string == "placement") {
      job = static_cast<std::int64_t>(r.value.at("jobs").array[0].number);
      break;
    }
  }

  const std::string note = "explanation records are not persisted in the WAL";
  const auto absent_in_json = [](const std::string& json) {
    obs::JsonValue root;
    EXPECT_TRUE(obs::parse_json(json, root)) << json;
    return root.at("explanation").is_string() &&
           root.at("explanation").string == "absent";
  };
  // Told the input is a WAL, or finding rounds without explanation
  // records, the answers say what is missing; the full log's do not.
  for (const bool from_wal : {true, false}) {
    SCOPED_TRACE(from_wal ? "from_wal" : "detected");
    const std::string job_text = obs::explain_job_text(wal, job, from_wal);
    EXPECT_NE(job_text.find(note), std::string::npos) << job_text;
    EXPECT_NE(job_text.find("placed"), std::string::npos) << job_text;
    EXPECT_TRUE(absent_in_json(obs::explain_job_json(wal, job, from_wal)));
    const std::string round_text = obs::explain_round_text(wal, 1, from_wal);
    EXPECT_NE(round_text.find(note), std::string::npos) << round_text;
    EXPECT_TRUE(absent_in_json(obs::explain_round_json(wal, 1, from_wal)));
  }
  EXPECT_EQ(obs::explain_job_text(full, job).find(note), std::string::npos);
  EXPECT_FALSE(absent_in_json(obs::explain_job_json(full, job)));
  EXPECT_EQ(obs::explain_round_text(full, 1).find(note), std::string::npos);
  EXPECT_FALSE(absent_in_json(obs::explain_round_json(full, 1)));
}

// ---------------------------------------------------------------------------
// Executor instrumentation.

TEST(Provenance, ExecutorRecordsGroupWindows) {
  DecisionLog log;
  runtime::ExecOptions opt;
  opt.time_scale = 0.001;
  opt.run_for = 0.05;
  opt.decisions = &log;
  std::vector<runtime::ExecJobSpec> jobs(2);
  jobs[0].name = "a";
  jobs[0].profile = {0.5, 0.1, 0.1, 0.1};
  jobs[0].offset = 0;
  jobs[1].name = "b";
  jobs[1].profile = {0.1, 0.5, 0.1, 0.1};
  jobs[1].offset = 1;
  runtime::run_group(jobs, opt);

  std::string error;
  ASSERT_TRUE(obs::validate_decision_log(log.jsonl(), &error)) << error;
  std::vector<DecisionRecord> records;
  ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), records));
  ASSERT_EQ(count_type(records, "exec_group"), 1);
  ASSERT_EQ(count_type(records, "exec_result"), 1);
  EXPECT_EQ(records[0].value.at("names").array[0].string, "a");
  EXPECT_EQ(records[0].value.at("mode").string, "coordinated");
  EXPECT_GE(records.back().value.at("gamma").number, 0.0);
}

}  // namespace
}  // namespace muri
