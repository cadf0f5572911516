// Per-job causal tracing (src/obs/jobtrace): the span state machine and
// wait-bucket classifier, the attribution invariant (buckets + run spans
// sum to the realized JCT for every finished job), live-vs-fold agreement
// (the recorder subscribed to a simulator's decision log matches
// build_job_traces() over the same log), byte-stable renderers across
// runs, the Chrome export, the schema of the new
// wait/straggler records, and the obs bit-identity contract (subscribing
// a JobTraceLog changes neither SimResult nor the decision-log bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "job/model.h"
#include "obs/jobtrace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

namespace muri {
namespace {

using obs::DecisionLog;
using obs::DecisionRecord;
using obs::JobTimeline;
using obs::JobTraceLog;
using obs::SpanKind;
using obs::TimelineSpan;

// ---------------------------------------------------------------------------
// Classifier and names.

TEST(JobTrace, SpanKindNamesRoundTrip) {
  for (int k = 0; k < obs::kNumSpanKinds; ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    SpanKind back = SpanKind::kRun;
    ASSERT_TRUE(obs::span_kind_from_name(obs::span_kind_name(kind), back))
        << obs::span_kind_name(kind);
    EXPECT_EQ(back, kind);
  }
  SpanKind out;
  EXPECT_FALSE(obs::span_kind_from_name("not_a_bucket", out));
  EXPECT_TRUE(obs::span_kind_is_wait(SpanKind::kAwaitingRound));
  EXPECT_TRUE(obs::span_kind_is_wait(SpanKind::kFaulted));
  EXPECT_FALSE(obs::span_kind_is_wait(SpanKind::kRestart));
  EXPECT_FALSE(obs::span_kind_is_wait(SpanKind::kRun));
  EXPECT_FALSE(obs::span_kind_is_wait(SpanKind::kDegraded));
}

TEST(JobTrace, ClassifyWaitIsExclusiveAndExhaustive) {
  // Deferral wins over everything (the scheduler said so explicitly).
  EXPECT_EQ(obs::classify_wait(true, 16, 8), SpanKind::kDeferred);
  EXPECT_EQ(obs::classify_wait(true, 1, 8), SpanKind::kDeferred);
  // Demand past the pool is structural, not a priority race.
  EXPECT_EQ(obs::classify_wait(false, 16, 8), SpanKind::kNoCapacity);
  // Otherwise the job just lost the round.
  EXPECT_EQ(obs::classify_wait(false, 8, 8), SpanKind::kLostPriority);
  EXPECT_EQ(obs::classify_wait(false, 1, 8), SpanKind::kLostPriority);
}

// ---------------------------------------------------------------------------
// State machine, driven by hand.

TEST(JobTrace, LifecycleAttributesEveryInterval) {
  JobTraceLog log;
  log.set_restart_penalty(5);
  log.submitted(1, 0);
  log.wait_verdict(1, 60, 1, SpanKind::kLostPriority);
  log.placed(1, 120, 2, {1}, 1.0, "exclusive");
  log.finished(1, 240, 240);

  JobTimeline t;
  ASSERT_TRUE(log.timeline(1, t));
  EXPECT_TRUE(t.finished);
  EXPECT_EQ(obs::validate_timeline(t), "");
  ASSERT_EQ(t.spans.size(), 4u);
  EXPECT_EQ(t.spans[0].kind, SpanKind::kAwaitingRound);
  EXPECT_EQ(t.spans[1].kind, SpanKind::kLostPriority);
  EXPECT_EQ(t.spans[2].kind, SpanKind::kRestart);
  EXPECT_EQ(t.spans[3].kind, SpanKind::kRun);
  EXPECT_EQ(t.spans[2].start, 120);
  EXPECT_EQ(t.spans[2].end, 125);  // the 5s gate, split out of the run
  EXPECT_EQ(t.spans[3].end, 240);
  EXPECT_EQ(t.spans[3].mode, "exclusive");
  EXPECT_EQ(t.bucket_seconds[static_cast<int>(SpanKind::kAwaitingRound)], 60);
  EXPECT_EQ(t.bucket_seconds[static_cast<int>(SpanKind::kLostPriority)], 60);
  EXPECT_EQ(t.bucket_seconds[static_cast<int>(SpanKind::kRestart)], 5);
  EXPECT_EQ(t.bucket_seconds[static_cast<int>(SpanKind::kRun)], 115);
  EXPECT_EQ(t.total_seconds(), t.reported_jct);
}

TEST(JobTrace, ReplacementWithSameGroupMergesChangedGroupRestarts) {
  JobTraceLog log;
  log.set_restart_penalty(5);
  log.submitted(7, 0);
  log.placed(7, 60, 1, {7}, 1.0, "exclusive");
  // Same group + mode + gamma: the open span absorbs the round id.
  log.placed(7, 120, 2, {7}, 1.0, "exclusive");
  // New co-member: terminate-and-restart, fresh gate.
  log.placed(7, 180, 3, {3, 7}, 0.9, "interleaved");
  log.finished(7, 300, 300);

  JobTimeline t;
  ASSERT_TRUE(log.timeline(7, t));
  EXPECT_EQ(obs::validate_timeline(t), "");
  ASSERT_EQ(t.spans.size(), 5u);
  EXPECT_EQ(t.spans[1].kind, SpanKind::kRestart);
  EXPECT_EQ(t.spans[2].kind, SpanKind::kRun);
  EXPECT_EQ(t.spans[2].rounds, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(t.spans[3].kind, SpanKind::kRestart);
  EXPECT_EQ(t.spans[3].start, 180);
  EXPECT_EQ(t.spans[4].kind, SpanKind::kRun);
  EXPECT_EQ(t.spans[4].group, (std::vector<std::int64_t>{3, 7}));
  EXPECT_EQ(t.spans[4].gamma, 0.9);
  EXPECT_EQ(t.spans[4].mode, "interleaved");
}

TEST(JobTrace, SameMembersDifferentModeRestarts) {
  // The executor's "unchanged" test is (members, mode): flipping the mode
  // with the same members must pay a restart, and the recorder agrees.
  JobTraceLog log;
  log.set_restart_penalty(5);
  log.submitted(1, 0);
  log.placed(1, 60, 1, {1, 2}, 0.8, "interleaved");
  log.placed(1, 120, 2, {1, 2}, 0.8, "uncoordinated");
  log.finished(1, 240, 240);
  JobTimeline t;
  ASSERT_TRUE(log.timeline(1, t));
  EXPECT_EQ(obs::validate_timeline(t), "");
  int restarts = 0;
  for (const TimelineSpan& s : t.spans) {
    restarts += s.kind == SpanKind::kRestart ? 1 : 0;
  }
  EXPECT_EQ(restarts, 2);
}

TEST(JobTrace, PreemptionSurvivesTheSameInstantWaitVerdict) {
  JobTraceLog log;
  log.set_restart_penalty(0);
  log.submitted(1, 0);
  log.placed(1, 60, 1, {1}, 1.0, "exclusive");
  log.preempted(1, 100, 2);
  // The displacing round classifies every waiting job at the same instant;
  // the fresh preempted span must absorb it, not be dropped as zero-length.
  log.wait_verdict(1, 100, 2, SpanKind::kLostPriority);
  // A later round reclassifies the wait.
  log.wait_verdict(1, 160, 3, SpanKind::kNoCapacity);
  log.placed(1, 220, 4, {1}, 1.0, "exclusive");
  log.finished(1, 300, 300);

  JobTimeline t;
  ASSERT_TRUE(log.timeline(1, t));
  EXPECT_EQ(obs::validate_timeline(t), "");
  EXPECT_EQ(t.bucket_seconds[static_cast<int>(SpanKind::kPreempted)], 60);
  EXPECT_EQ(t.bucket_seconds[static_cast<int>(SpanKind::kNoCapacity)], 60);
  bool saw_preempted = false;
  for (const TimelineSpan& s : t.spans) {
    if (s.kind != SpanKind::kPreempted) continue;
    saw_preempted = true;
    EXPECT_EQ(s.rounds, (std::vector<std::int64_t>{2}));
  }
  EXPECT_TRUE(saw_preempted);
}

TEST(JobTrace, StragglerFactorChangeSplitsTheRunSpan) {
  JobTraceLog log;
  log.set_restart_penalty(5);
  log.submitted(1, 0);
  log.placed(1, 60, 1, {1}, 1.0, "exclusive");
  log.straggler(1, 100, 2.0);
  log.straggler(1, 150, 1.0);
  log.finished(1, 200, 200);

  JobTimeline t;
  ASSERT_TRUE(log.timeline(1, t));
  EXPECT_EQ(obs::validate_timeline(t), "");
  std::vector<double> factors;
  for (const TimelineSpan& s : t.spans) {
    if (s.kind == SpanKind::kRun) factors.push_back(s.straggler);
  }
  EXPECT_EQ(factors, (std::vector<double>{1.0, 2.0, 1.0}));
  // The gate is paid once: splitting on straggler edges must not re-split
  // restart time.
  EXPECT_EQ(t.bucket_seconds[static_cast<int>(SpanKind::kRestart)], 5);
}

TEST(JobTrace, CancelClosesWithoutEnteringTotals) {
  obs::MetricsRegistry registry;
  JobTraceLog log;
  log.set_metrics(&registry);
  log.submitted(1, 0);
  log.submitted(2, 0);
  log.placed(2, 10, 1, {2}, 1.0, "exclusive");
  log.cancelled(1, 50);
  log.finished(2, 100, 100);

  JobTimeline t;
  ASSERT_TRUE(log.timeline(1, t));
  EXPECT_TRUE(t.cancelled);
  EXPECT_FALSE(t.finished);
  EXPECT_EQ(obs::validate_timeline(t), "");

  std::int64_t finished = 0;
  const auto totals = log.totals(&finished);
  EXPECT_EQ(finished, 1);
  double sum = 0;
  for (const double b : totals) sum += b;
  EXPECT_EQ(sum, 100);  // only job 2 (cancelled jobs carry no verdict)
}

TEST(JobTrace, ValidateTimelineCatchesGapsAndBadSums) {
  JobTimeline t;
  t.job = 1;
  t.submit = 0;
  t.finish = 100;
  t.finished = true;
  t.reported_jct = 100;
  TimelineSpan a;
  a.kind = SpanKind::kAwaitingRound;
  a.start = 0;
  a.end = 40;
  TimelineSpan b;
  b.kind = SpanKind::kRun;
  b.start = 60;  // gap: 40 != 60
  b.end = 100;
  t.spans = {a, b};
  t.bucket_seconds[static_cast<int>(SpanKind::kAwaitingRound)] = 40;
  t.bucket_seconds[static_cast<int>(SpanKind::kRun)] = 40;
  EXPECT_NE(obs::validate_timeline(t), "");

  t.spans[1].start = 40;
  t.spans[1].end = 100;
  t.bucket_seconds[static_cast<int>(SpanKind::kRun)] = 60;
  EXPECT_EQ(obs::validate_timeline(t), "");

  t.reported_jct = 250;  // buckets no longer explain the reported JCT
  EXPECT_NE(obs::validate_timeline(t), "");
}

// ---------------------------------------------------------------------------
// Simulator integration: live recorder, fold agreement, invariants.

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
  t.name = "jobtrace";
  for (int i = 0; i < 8; ++i) {
    t.jobs.push_back(sim_job(i, kAllModels[static_cast<size_t>(i) % 8],
                             i * 30.0, 900));
  }
  // One job too wide for the pool: its waits must classify as
  // no_capacity, exercising the structural bucket.
  Job wide = sim_job(8, kAllModels[0], 10.0, 300);
  wide.num_gpus = 4;
  wide.profile = model_profile(kAllModels[0], 4);
  t.jobs.push_back(wide);
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

// Job faults, machine crashes and stragglers on two machines.
SimOptions faulty_cluster() {
  SimOptions opt = tiny_cluster();
  opt.cluster.num_machines = 2;
  opt.mtbf_hours = 0.1;
  opt.machine_faults.machine_mtbf_hours = 0.2;
  opt.machine_faults.machine_mttr_hours = 0.05;
  opt.machine_faults.straggler_rate_per_hour = 4;
  opt.machine_faults.straggler_duration_s = 300;
  opt.max_time = 12 * 3600;
  return opt;
}

TEST(JobTrace, EveryFinishedSimJobSatisfiesTheAttributionInvariant) {
  const Trace t = contended_trace();
  DecisionLog log;
  JobTraceLog live;
  log.set_subscriber(&live);
  SimOptions opt = tiny_cluster();
  opt.decisions = &log;
  MuriScheduler s{MuriOptions{}};
  const SimResult result = run_simulation(t, s, opt);
  ASSERT_GT(result.finished_jobs, 0);

  int finished = 0;
  for (const JobTimeline& tl : live.timelines()) {
    if (!tl.finished) continue;
    ++finished;
    EXPECT_EQ(obs::validate_timeline(tl), "") << "job " << tl.job;
    // The wide job can only ever wait on capacity, never lose a race.
    if (tl.job == 8) {
      EXPECT_EQ(
          tl.bucket_seconds[static_cast<int>(SpanKind::kLostPriority)], 0);
    }
  }
  EXPECT_EQ(finished, result.finished_jobs);
}

TEST(JobTrace, InvariantHoldsUnderFaultsAndStragglers) {
  Trace t = contended_trace();
  SimOptions opt = faulty_cluster();
  DecisionLog log;
  JobTraceLog live;
  log.set_subscriber(&live);
  opt.decisions = &log;
  MuriScheduler s{MuriOptions{}};
  const SimResult result = run_simulation(t, s, opt);
  ASSERT_GT(result.finished_jobs, 0);
  for (const JobTimeline& tl : live.timelines()) {
    if (!tl.finished) continue;
    EXPECT_EQ(obs::validate_timeline(tl), "") << "job " << tl.job;
  }
}

TEST(JobTrace, FoldOverDecisionLogMatchesTheLiveRecorder) {
  const Trace t = contended_trace();
  DecisionLog log;
  JobTraceLog live;
  log.set_subscriber(&live);
  SimOptions opt = tiny_cluster();
  opt.decisions = &log;
  MuriScheduler s{MuriOptions{}};
  run_simulation(t, s, opt);

  std::vector<DecisionRecord> records;
  std::string error;
  ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), records, &error)) << error;
  JobTraceLog fold;
  obs::build_job_traces(records, fold);
  EXPECT_EQ(fold.restart_penalty(), opt.restart_penalty);
  // Rendered bytes cover every span field at full precision.
  EXPECT_EQ(obs::timelines_json(live.timelines()),
            obs::timelines_json(fold.timelines()));
  EXPECT_EQ(obs::timeline_csv(live.timelines()),
            obs::timeline_csv(fold.timelines()));
  EXPECT_EQ(obs::jobs_report_csv(live.timelines()),
            obs::jobs_report_csv(fold.timelines()));
}

std::vector<JobTimeline> fold_of(const DecisionLog& log) {
  std::vector<DecisionRecord> records;
  std::string error;
  EXPECT_TRUE(obs::parse_decision_log(log.jsonl(), records, &error)) << error;
  JobTraceLog fold;
  obs::build_job_traces(records, fold);
  return fold.timelines();
}

TEST(JobTrace, FoldMatchesLiveUnderFaults) {
  Trace t = contended_trace();
  SimOptions opt = faulty_cluster();
  DecisionLog log;
  JobTraceLog live;
  log.set_subscriber(&live);
  opt.decisions = &log;
  MuriScheduler s{MuriOptions{}};
  run_simulation(t, s, opt);

  const std::vector<JobTimeline> fold = fold_of(log);
  EXPECT_EQ(obs::timelines_json(live.timelines()), obs::timelines_json(fold));
  // The whole-life facts (first submit/placement, preemptions, restarts)
  // agree too; the jobs report renders every one of them.
  EXPECT_EQ(obs::jobs_report_csv(live.timelines()),
            obs::jobs_report_csv(fold));
}

TEST(JobTrace, FoldReproducesTheEngineJctBreakdownUnderFaults) {
  Trace t = contended_trace();
  SimOptions opt = faulty_cluster();
  DecisionLog log;
  opt.decisions = &log;
  MuriScheduler s{MuriOptions{}};
  const SimResult result = run_simulation(t, s, opt);

  std::map<std::int64_t, JobTimeline> fold;
  for (JobTimeline& tl : fold_of(log)) fold[tl.job] = std::move(tl);
  ASSERT_FALSE(result.jct_breakdown.empty());
  int preempted = 0;
  for (const JctBreakdown& b : result.jct_breakdown) {
    const auto it = fold.find(b.job);
    ASSERT_NE(it, fold.end()) << "job " << b.job << " missing from the fold";
    const JobTimeline& tl = it->second;
    ASSERT_TRUE(tl.finished) << "job " << b.job;
    const auto seconds = [&tl](SpanKind kind) {
      return tl.bucket_seconds[static_cast<size_t>(kind)];
    };
    double waited = 0;
    for (int k = 0; k < obs::kNumSpanKinds; ++k) {
      if (obs::span_kind_is_wait(static_cast<SpanKind>(k))) {
        waited += seconds(static_cast<SpanKind>(k));
      }
    }
    const double tol = 1e-9 * std::max(1.0, b.jct_seconds);
    EXPECT_NEAR(b.queueing_seconds, waited, tol) << "job " << b.job;
    EXPECT_NEAR(b.running_seconds,
                seconds(SpanKind::kRun) + seconds(SpanKind::kDegraded), tol)
        << "job " << b.job;
    EXPECT_NEAR(b.restart_overhead_seconds, seconds(SpanKind::kRestart), tol)
        << "job " << b.job;
    EXPECT_EQ(b.preemptions, tl.preemptions) << "job " << b.job;
    if (b.preemptions > 0) ++preempted;
  }
  EXPECT_GT(preempted, 0) << "no job was preempted or evicted";
}

TEST(JobTrace, TimelineRoundIdsAgreeWithTheDecisionLog) {
  const Trace t = contended_trace();
  DecisionLog log;
  JobTraceLog live;
  log.set_subscriber(&live);
  SimOptions opt = tiny_cluster();
  opt.decisions = &log;
  MuriScheduler s{MuriOptions{}};
  run_simulation(t, s, opt);

  std::vector<DecisionRecord> records;
  ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), records));
  std::set<std::int64_t> known_rounds;
  for (const DecisionRecord& r : records) {
    known_rounds.insert(static_cast<std::int64_t>(r.value.at("round").number));
  }
  bool any_round = false;
  for (const JobTimeline& tl : live.timelines()) {
    for (const TimelineSpan& span : tl.spans) {
      for (const std::int64_t round : span.rounds) {
        any_round = true;
        EXPECT_TRUE(known_rounds.count(round))
            << "job " << tl.job << " cites unknown round " << round;
      }
    }
  }
  EXPECT_TRUE(any_round);
  // The wait verdicts surface in explain-job output too (the "wait"
  // record mentions the job id).
  const std::string explain = obs::explain_job_text(records, 0);
  EXPECT_NE(explain.find("left waiting"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bit-identity and byte-stability.

TEST(JobTrace, AttachingTheRecorderIsBitIdentical) {
  const Trace t = contended_trace();

  DecisionLog bare_log;
  SimOptions bare_opt = tiny_cluster();
  bare_opt.decisions = &bare_log;
  MuriScheduler bare{MuriOptions{}};
  const SimResult want = run_simulation(t, bare, bare_opt);

  DecisionLog traced_log;
  JobTraceLog live;
  traced_log.set_subscriber(&live);
  SimOptions traced_opt = tiny_cluster();
  traced_opt.decisions = &traced_log;
  MuriScheduler traced{MuriOptions{}};
  const SimResult got = run_simulation(t, traced, traced_opt);

  EXPECT_EQ(want.avg_jct, got.avg_jct);
  EXPECT_EQ(want.p99_jct, got.p99_jct);
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.jcts, got.jcts);
  EXPECT_EQ(want.restarts, got.restarts);
  EXPECT_EQ(want.scheduler_invocations, got.scheduler_invocations);
  // The decision log carries the wait/straggler records either way: the
  // recorder only listens, it never writes.
  EXPECT_EQ(bare_log.jsonl(), traced_log.jsonl());
}

TEST(JobTrace, RenderersAreByteStableAcrossRuns) {
  const Trace t = contended_trace();
  const auto render = [&] {
    DecisionLog log;
    JobTraceLog live;
    log.set_subscriber(&live);
    SimOptions opt = tiny_cluster();
    opt.decisions = &log;
    MuriScheduler s{MuriOptions{}};
    run_simulation(t, s, opt);
    const std::vector<JobTimeline> tls = live.timelines();
    std::string out = obs::timelines_json(tls);
    out += obs::timeline_csv(tls);
    out += obs::chrome_trace_json(tls);
    for (const JobTimeline& tl : tls) out += obs::timeline_text(tl);
    return out;
  };
  EXPECT_EQ(render(), render());
}

TEST(JobTrace, ChromeExportValidates) {
  const Trace t = contended_trace();
  DecisionLog log;
  JobTraceLog live;
  log.set_subscriber(&live);
  SimOptions opt = tiny_cluster();
  opt.decisions = &log;
  MuriScheduler s{MuriOptions{}};
  run_simulation(t, s, opt);
  std::string error;
  EXPECT_TRUE(
      obs::validate_chrome_trace(obs::chrome_trace_json(live.timelines()),
                                 &error))
      << error;
}

TEST(JobTrace, FinishedJobsFeedWaitBucketHistograms) {
  obs::MetricsRegistry registry;
  const Trace t = contended_trace();
  DecisionLog log;
  JobTraceLog live;
  live.set_metrics(&registry);
  log.set_subscriber(&live);
  SimOptions opt = tiny_cluster();
  opt.decisions = &log;
  opt.metrics = &registry;
  MuriScheduler s{MuriOptions{}};
  const SimResult result = run_simulation(t, s, opt);
  ASSERT_GT(result.finished_jobs, 0);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("muri_job_wait_bucket_seconds"), std::string::npos);
  EXPECT_NE(text.find("bucket=\"lost_priority\""), std::string::npos);
  EXPECT_NE(text.find("bucket=\"run\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Schema: the wait/straggler records the emitters write for the fold.

TEST(JobTrace, WaitAndStragglerRecordsValidate) {
  DecisionLog log;
  log.begin_round();
  log.entry("wait").num("t", 60).ids("job", {1, 2}).strs(
      "bucket", {"lost_priority", "no_capacity"});
  log.entry("straggler").num("t", 61).num("job", 3).num("factor", 1.5);
  std::string error;
  EXPECT_TRUE(obs::validate_decision_log(log.jsonl(), &error)) << error;

  // Missing the aligned bucket array: rejected.
  EXPECT_FALSE(obs::validate_decision_log(
      "{\"type\":\"wait\",\"round\":1,\"t\":60,\"job\":[1]}\n", &error));
  EXPECT_NE(error.find("wait"), std::string::npos);
  // Non-numeric factor: rejected.
  EXPECT_FALSE(obs::validate_decision_log(
      "{\"type\":\"straggler\",\"round\":1,\"t\":60,\"job\":3,"
      "\"factor\":\"fast\"}\n",
      &error));
}

TEST(JobTrace, FoldIgnoresUnknownBucketsAndShortLogs) {
  // A fold over an empty log yields no jobs, not a crash.
  JobTraceLog fold;
  obs::build_job_traces({}, fold);
  EXPECT_TRUE(fold.timelines().empty());
  JobTimeline t;
  EXPECT_FALSE(fold.timeline(42, t));

  // Records without a non-negative integer job id name no job, and a
  // wait verdict with an unknown bucket is no verdict: job 1 waits in
  // awaiting_round from submit to finish.
  std::vector<DecisionRecord> records;
  std::string error;
  ASSERT_TRUE(obs::parse_decision_log(
      "{\"type\":\"arrival\",\"round\":0,\"t\":5,\"gpus\":1}\n"
      "{\"type\":\"arrival\",\"round\":0,\"t\":5,\"job\":-3,\"gpus\":1}\n"
      "{\"type\":\"job_submit\",\"round\":0,\"t\":5,\"job\":2.5}\n"
      "{\"type\":\"job_submit\",\"round\":0,\"t\":5,\"job\":\"4\"}\n"
      "{\"type\":\"arrival\",\"round\":0,\"t\":0,\"job\":1,\"gpus\":1}\n"
      "{\"type\":\"wait\",\"round\":1,\"t\":60,\"job\":[1],"
      "\"bucket\":[\"sleeping\"]}\n"
      "{\"type\":\"placement\",\"round\":1,\"t\":60,\"jobs\":[1,-1]}\n"
      "{\"type\":\"finish\",\"round\":1,\"t\":100,\"job\":1,\"jct\":100}\n",
      records, &error))
      << error;
  JobTraceLog partial;
  obs::build_job_traces(records, partial);
  const std::vector<JobTimeline> tls = partial.timelines();
  ASSERT_EQ(tls.size(), 1u);
  EXPECT_EQ(tls[0].job, 1);
  EXPECT_TRUE(tls[0].finished);
  ASSERT_EQ(tls[0].spans.size(), 1u);
  EXPECT_EQ(tls[0].spans[0].kind, SpanKind::kAwaitingRound);
  EXPECT_EQ(tls[0].spans[0].end, 100);
  EXPECT_EQ(obs::validate_timeline(tls[0]), "");
  EXPECT_EQ(obs::jobs_report_csv(tls).find("\n-"), std::string::npos);
}

}  // namespace
}  // namespace muri
