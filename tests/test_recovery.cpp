// Crash-safe scheduling (src/recovery): WAL framing and torn-tail
// truncation, deterministic replay of DecisionLog streams, recovery by
// folding the WAL's records, and the acceptance sweep — kill the durable
// log at every record boundary, resume, and converge bit-exactly
// (SimResult, plans, WAL bytes) with the uninterrupted run, across seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "job/model.h"
#include "obs/provenance.h"
#include "recovery/durable.h"
#include "recovery/replay.h"
#include "recovery/resume.h"
#include "recovery/wal.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

namespace muri {
namespace {

using obs::DecisionLog;
using recovery::DurableSink;
using recovery::DurableSinkOptions;
using recovery::RecoverResult;
using recovery::ReplayEngine;
using recovery::ReplayState;
using recovery::WalReadResult;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "muri_recovery_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------------------
// WAL framing.

TEST(Wal, Crc32MatchesTheIeeeReference) {
  // The canonical CRC-32 check value ("123456789" -> 0xCBF43926).
  EXPECT_EQ(recovery::crc32_ieee("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(recovery::crc32_ieee("", 0), 0u);
}

TEST(Wal, FramesRoundTrip) {
  std::string bytes;
  recovery::append_wal_frame(bytes, "{\"a\":1}");
  recovery::append_wal_frame(bytes, "{\"b\":2}");
  recovery::append_wal_frame(bytes, "");
  EXPECT_TRUE(recovery::looks_like_wal(bytes));
  EXPECT_EQ(bytes[4], static_cast<char>(recovery::kRecordFrame));
  EXPECT_EQ(bytes.size(), 3 * recovery::kWalHeaderSize + 14);

  const WalReadResult decoded = recovery::decode_wal(bytes);
  EXPECT_FALSE(decoded.torn);
  EXPECT_TRUE(decoded.error.empty());
  EXPECT_EQ(decoded.valid_bytes, bytes.size());
  EXPECT_EQ(decoded.records,
            (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}", ""}));
}

TEST(Wal, TornTailStopsTheScanWithoutLosingThePrefix) {
  std::string bytes;
  recovery::append_wal_frame(bytes, "{\"a\":1}");
  const std::size_t clean_size = bytes.size();
  std::string full = bytes;
  recovery::append_wal_frame(full, "{\"b\":22}");

  // Cut the second frame mid-payload: the classic crashed-append shape.
  const std::string torn = full.substr(0, full.size() - 3);
  WalReadResult decoded = recovery::decode_wal(torn);
  EXPECT_TRUE(decoded.torn);
  EXPECT_EQ(decoded.valid_bytes, clean_size);
  ASSERT_EQ(decoded.records.size(), 1u);
  EXPECT_NE(decoded.torn_reason.find("byte offset " +
                                     std::to_string(clean_size)),
            std::string::npos);

  // A flipped payload byte fails the checksum, same containment.
  std::string corrupt = full;
  corrupt[full.size() - 2] ^= 0x40;
  decoded = recovery::decode_wal(corrupt);
  EXPECT_TRUE(decoded.torn);
  EXPECT_NE(decoded.torn_reason.find("checksum"), std::string::npos);
  EXPECT_EQ(decoded.records.size(), 1u);

  // truncate_wal_file cuts the file to the valid prefix in place.
  const std::string path = temp_path("torn.wal");
  spit(path, torn);
  std::string error;
  ASSERT_TRUE(recovery::truncate_wal_file(path, clean_size, &error)) << error;
  EXPECT_EQ(slurp(path), bytes);
  decoded = recovery::decode_wal(slurp(path));
  EXPECT_FALSE(decoded.torn);
}

// ---------------------------------------------------------------------------
// Simulation fixtures: a small contended trace on a faulty two-machine
// cluster, so logs carry the full record vocabulary (placements,
// preempts, faults, evictions, machine_down/up, finishes).

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

Trace recovery_trace(std::uint64_t seed) {
  Trace t;
  t.name = "recovery_" + std::to_string(seed);
  for (int i = 0; i < 6; ++i) {
    // The seed staggers arrivals and durations so different seeds yield
    // genuinely different logs.
    const auto si = static_cast<double>((seed * 7 + i * 13) % 90);
    t.jobs.push_back(sim_job(i, kAllModels[(i + seed) % 8], i * 45.0 + si,
                             500 + 40.0 * ((seed + i) % 5)));
  }
  return t;
}

SimOptions faulty_cluster() {
  SimOptions opt;
  opt.cluster.num_machines = 2;
  opt.cluster.gpus_per_machine = 2;
  opt.schedule_interval = 60;
  opt.restart_penalty = 5;
  opt.mtbf_hours = 0.2;  // job faults
  opt.machine_faults.machine_mtbf_hours = 0.6;
  opt.machine_faults.machine_mttr_hours = 0.05;
  return opt;
}

// Captures every plan the wrapped scheduler emits, so clean and resumed
// runs can be compared plan-for-plan.
class PlanRecorder final : public Scheduler {
 public:
  PlanRecorder(std::unique_ptr<Scheduler> inner,
               std::vector<std::vector<PlannedGroup>>* plans)
      : inner_(std::move(inner)), plans_(plans) {}

  std::string name() const override { return inner_->name(); }
  bool needs_durations() const override { return inner_->needs_durations(); }

  std::vector<PlannedGroup> schedule(const std::vector<JobView>& queue,
                                     const SchedulerContext& ctx) override {
    // The harness attaches the decision log to the wrapper; forward it.
    inner_->set_decision_log(decision_log());
    std::vector<PlannedGroup> plan = inner_->schedule(queue, ctx);
    plans_->push_back(plan);
    return plan;
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::vector<std::vector<PlannedGroup>>* plans_;
};

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

void expect_same_result(const SimResult& want, const SimResult& got) {
  EXPECT_EQ(want.avg_jct, got.avg_jct);
  EXPECT_EQ(want.p99_jct, got.p99_jct);
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.jcts, got.jcts);
  EXPECT_EQ(want.finished_jobs, got.finished_jobs);
  EXPECT_EQ(want.unfinished_jobs, got.unfinished_jobs);
  EXPECT_EQ(want.faults, got.faults);
  EXPECT_EQ(want.restarts, got.restarts);
  EXPECT_EQ(want.machine_failures, got.machine_failures);
  EXPECT_EQ(want.evictions, got.evictions);
  EXPECT_EQ(want.avg_queue_length, got.avg_queue_length);
  EXPECT_EQ(want.avg_utilization, got.avg_utilization);
  EXPECT_EQ(want.resource_busy_seconds, got.resource_busy_seconds);
  EXPECT_EQ(want.scheduler_invocations, got.scheduler_invocations);
}

// One durable reference run: returns the SimResult and leaves the WAL at
// `path`.
SimResult durable_run(const Trace& trace, const std::string& path,
                      std::vector<std::vector<PlannedGroup>>* plans,
                      std::string* jsonl = nullptr) {
  DurableSinkOptions sink_options;
  sink_options.fsync = DurableSinkOptions::Fsync::kNone;
  DurableSink sink(path, sink_options);
  EXPECT_TRUE(sink.ok()) << sink.error();

  DecisionLog log;
  log.set_sink(&sink);
  std::vector<std::vector<PlannedGroup>> local_plans;
  PlanRecorder scheduler(std::make_unique<MuriScheduler>(),
                         plans != nullptr ? plans : &local_plans);
  SimOptions sim = faulty_cluster();
  sim.decisions = &log;
  const SimResult result = run_simulation(trace, scheduler, sim);
  log.set_sink(nullptr);
  sink.close();
  EXPECT_TRUE(sink.ok()) << sink.error();
  if (jsonl != nullptr) *jsonl = log.jsonl();
  return result;
}

// The lines of `jsonl` whose type is in the state tier: what the WAL of
// the same run must hold.
std::string state_tier(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (obs::is_explanation_record(obs::record_type(line))) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// DurableSink basics.

TEST(DurableSink, PersistsRecordsInCommitOrder) {
  const std::string path = temp_path("sink_order.wal");
  std::string jsonl;
  durable_run(recovery_trace(1), path, nullptr, &jsonl);

  WalReadResult decoded;
  std::string error;
  ASSERT_TRUE(recovery::read_wal_file(path, decoded, &error)) << error;
  EXPECT_FALSE(decoded.torn);
  std::string replayed;
  for (const std::string& record : decoded.records) {
    EXPECT_FALSE(obs::is_explanation_record(obs::record_type(record)))
        << record;
    replayed += record;
    replayed += '\n';
  }
  // The WAL is the state-tier subsequence of the in-memory log, byte for
  // byte; the log itself still explains its rounds.
  const std::string state = state_tier(jsonl);
  EXPECT_EQ(replayed, state);
  EXPECT_LT(state.size(), jsonl.size());
  EXPECT_GT(decoded.records.size(), 100u);
}

TEST(DurableSink, StopAfterRecordsLeavesABoundedPrefix) {
  const std::string path = temp_path("sink_stop.wal");
  DurableSinkOptions options;
  options.fsync = DurableSinkOptions::Fsync::kEveryRecord;
  options.stop_after_records = 2;
  DurableSink sink(path, options);
  DecisionLog log;
  log.set_sink(&sink);
  log.begin_round();
  log.entry("round_start")
      .str("scheduler", "x")
      .str("policy", "y")
      .integer("queue", 0)
      .integer("capacity", 0);
  log.entry("round_end").integer("groups", 0).integer("admitted", 0).integer(
      "rejected", 0);
  log.entry("preempt").num("t", 0).integer("job", 1).str("reason",
                                                          "never_written");
  log.set_sink(nullptr);
  sink.close();
  EXPECT_EQ(log.records(), 3);  // the in-memory log is unaffected

  WalReadResult decoded;
  ASSERT_TRUE(recovery::read_wal_file(path, decoded, nullptr));
  ASSERT_EQ(decoded.records.size(), 2u);
  EXPECT_EQ(decoded.records[1].find("never_written"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Replay determinism.

TEST(Replay, SameLogReplayedTwiceYieldsIdenticalState) {
  const std::string path = temp_path("replay_twice.wal");
  std::string jsonl;
  durable_run(recovery_trace(1), path, nullptr, &jsonl);

  ReplayEngine first, second;
  std::string error;
  ASSERT_TRUE(first.replay(jsonl, &error)) << error;
  ASSERT_TRUE(second.replay(jsonl, &error)) << error;
  EXPECT_EQ(first.state(), second.state());
  EXPECT_EQ(recovery::state_json(first.state()),
            recovery::state_json(second.state()));
}

TEST(Replay, ThreadedRunReplaysIdenticalToSerial) {
  // A daemon drives its scheduler from a loop thread, not the main
  // thread, and grouping keeps its workspaces per thread. A run on
  // another thread must log the very bytes of a run on this one.
  const Trace trace = recovery_trace(2);
  std::string serial_jsonl, threaded_jsonl;
  durable_run(trace, temp_path("replay_serial.wal"), nullptr,
              &serial_jsonl);
  std::thread worker([&] {
    durable_run(trace, temp_path("replay_threaded.wal"), nullptr,
                &threaded_jsonl);
  });
  worker.join();
  EXPECT_EQ(serial_jsonl, threaded_jsonl);
  // …and so, a fortiori, is the replayed state.
  ReplayEngine serial, threaded;
  ASSERT_TRUE(serial.replay(serial_jsonl));
  ASSERT_TRUE(threaded.replay(threaded_jsonl));
  EXPECT_EQ(serial.state(), threaded.state());
}

TEST(Replay, FinalStateMatchesTheLiveSimResult) {
  const Trace trace = recovery_trace(1);
  std::string jsonl;
  const SimResult live =
      durable_run(trace, temp_path("replay_live.wal"), nullptr, &jsonl);

  ReplayEngine engine;
  std::string error;
  ASSERT_TRUE(engine.replay(jsonl, &error)) << error;
  const ReplayState& state = engine.state();
  EXPECT_TRUE(state.run_complete);
  EXPECT_EQ(state.jcts, live.jcts);
  EXPECT_EQ(state.avg_jct(), live.avg_jct);
  EXPECT_EQ(state.p99_jct(), live.p99_jct);
  EXPECT_EQ(state.makespan, live.makespan);
  EXPECT_EQ(state.finished_jobs, live.finished_jobs);
  EXPECT_EQ(state.unfinished_jobs, live.unfinished_jobs);
  EXPECT_EQ(state.faults, live.faults);
  EXPECT_EQ(state.restarts, live.restarts);
  EXPECT_EQ(state.machine_failures, live.machine_failures);
  EXPECT_EQ(state.evictions, live.evictions);
  EXPECT_EQ(state.scheduler_invocations, live.scheduler_invocations);
  // Everyone arrived and finished; nothing left queued or running.
  EXPECT_EQ(static_cast<int>(state.finished.size()), live.finished_jobs);
  EXPECT_TRUE(state.running.empty());
  EXPECT_TRUE(state.queued().empty());
  // machines_down may be non-empty: a machine whose repair falls past
  // the last job completion is still down when the run ends.
}

TEST(Replay, StateJsonRendersTheRestartSetByteStably) {
  std::string jsonl;
  durable_run(recovery_trace(3), temp_path("replay_rt.wal"), nullptr,
              &jsonl);
  ReplayEngine engine;
  ASSERT_TRUE(engine.replay(jsonl));
  EXPECT_EQ(recovery::state_json(engine.state()).back(), '\n');
  EXPECT_FALSE(recovery::state_text(engine.state()).empty());

  // The daemon restart set: a name that needs escaping, fractional
  // deadline and progress, a placement that clears a start deadline, and
  // an id that only a queued cancel names.
  ReplayEngine daemon;
  std::string error;
  ASSERT_TRUE(daemon.replay(
      "{\"type\":\"daemon_start\",\"round\":0,\"t\":0,\"machines\":2,"
      "\"gpus\":8}\n"
      "{\"type\":\"job_submit\",\"round\":0,\"t\":1.5,\"job\":0,"
      "\"model\":\"gpt2\",\"gpus\":2,\"iterations\":900,"
      "\"name\":\"a \\\"quoted\\\" name\",\"deadline_s\":600.25}\n"
      "{\"type\":\"job_submit\",\"round\":0,\"t\":2,\"job\":1,"
      "\"model\":\"bert\",\"gpus\":1,\"iterations\":50,"
      "\"deadline_s\":30}\n"
      "{\"type\":\"placement\",\"round\":1,\"t\":2,\"jobs\":[1],"
      "\"gpus\":1,\"machines\":[0],\"owner\":1}\n"
      "{\"type\":\"job_progress\",\"round\":1,\"t\":9,\"job\":0,"
      "\"done\":12.75}\n"
      "{\"type\":\"job_cancel\",\"round\":1,\"t\":9,\"job\":4,"
      "\"reason\":\"client_queued\"}\n",
      &error))
      << error;
  const ReplayState& live = daemon.state();
  EXPECT_EQ(live.machines, 2);
  EXPECT_EQ(live.total_gpus, 8);
  EXPECT_EQ(live.max_job, 4);
  ASSERT_EQ(live.jobs.size(), 2u);
  const recovery::ReplayJob& named = live.jobs.at(0);
  EXPECT_EQ(named.submit_t, 1.5);
  EXPECT_EQ(named.model, "gpt2");
  EXPECT_EQ(named.gpus, 2);
  EXPECT_EQ(named.iterations, 900);
  EXPECT_EQ(named.name, "a \"quoted\" name");
  EXPECT_EQ(named.deadline_s, 600.25);
  EXPECT_EQ(named.done, 12.75);
  EXPECT_EQ(live.jobs.at(1).deadline_s, 0);
  // muri-report replay --format=json prints these bytes; pinned.
  EXPECT_EQ(recovery::state_json(live),
            R"({"type":"replay_state","runs":0,"records":6,"round":1,)"
            R"("sim_time":9,"run_complete":false,"machines":2,"gpus":8,)"
            R"("arrived":[0,1],"running":[1],"finished":[],"max_job":4,)"
            R"("jobs":[{"job":0,"t":1.5,"model":"gpt2","gpus":2,)"
            R"("iterations":900,"name":"a \"quoted\" name",)"
            R"("deadline_s":600.25,"done":12.75},{"job":1,"t":2,)"
            R"("model":"bert","gpus":1,"iterations":50,"name":"",)"
            R"("deadline_s":0,"done":0}],"placement_round":1,)"
            R"("groups":[{"jobs":[1],"gpus":1,"mode":"","machines":[0],)"
            R"("owner":1}],"machines_down":[],"jcts":[],"makespan":0,)"
            R"("finished_jobs":0,"unfinished_jobs":0,"faults":0,)"
            R"("restarts":0,"machine_failures":0,"evictions":0,)"
            R"("scheduler_invocations":0})"
            "\n");
}

// ---------------------------------------------------------------------------
// Recovery from the WAL.

TEST(Recovery, WalRecoveryEqualsFullReplay) {
  const std::string path = temp_path("wal_fold.wal");
  std::string jsonl;
  durable_run(recovery_trace(1), path, nullptr, &jsonl);

  ReplayEngine full;
  ASSERT_TRUE(full.replay(jsonl));

  RecoverResult recovered;
  std::string error;
  ASSERT_TRUE(recovery::recover_wal(path, recovered, &error)) << error;
  EXPECT_FALSE(recovered.torn);
  EXPECT_EQ(recovered.valid_bytes, slurp(path).size());
  EXPECT_EQ(recovered.state, full.state());
}

// A WAL an older build wrote with snapshot frames (kind 2) is refused by
// every reader, never taken for a torn tail: a resume would otherwise cut
// the file at the snapshot, along with every record after it.
TEST(Recovery, SnapshotFrameIsRefusedAndTheFileLeftAsIs) {
  const std::string record =
      "{\"type\":\"round_start\",\"round\":1,\"scheduler\":\"x\","
      "\"policy\":\"y\",\"queue\":0,\"capacity\":0}";
  std::string bytes;
  recovery::append_wal_frame(bytes, record);
  const std::size_t snapshot_at = bytes.size();
  recovery::append_wal_frame(bytes, "{\"type\":\"replay_state\"}");
  bytes[snapshot_at + 4] = 2;  // the retired snapshot kind
  recovery::append_wal_frame(bytes, record);
  std::string torn;
  recovery::append_wal_frame(torn, record);
  for (const std::string& wal : {bytes, bytes + torn.substr(0, 20)}) {
    SCOPED_TRACE(wal.size());
    const std::string where =
        "frame 1 at byte offset " + std::to_string(snapshot_at) +
        " is a snapshot frame";
    const WalReadResult decoded = recovery::decode_wal(wal);
    EXPECT_FALSE(decoded.torn);
    EXPECT_EQ(decoded.valid_bytes, snapshot_at);
    EXPECT_NE(decoded.error.find(where), std::string::npos) << decoded.error;

    const std::string path = temp_path("snapshot_frame.wal");
    spit(path, wal);
    RecoverResult recovered;
    std::string error;
    EXPECT_FALSE(recovery::recover_wal(path, recovered, &error));
    EXPECT_NE(error.find(where), std::string::npos) << error;
    for (const bool append : {false, true}) {
      DurableSinkOptions options;
      options.resume = !append;
      options.append_resume = append;
      DurableSink sink(path, options);
      EXPECT_FALSE(sink.ok());
      EXPECT_NE(sink.error().find(path + ": " + where), std::string::npos)
          << sink.error();
      sink.on_record(record);
      sink.close();
      EXPECT_EQ(slurp(path), wal);
    }

    recovery::ResumeOptions options;
    options.wal_path = path;
    MuriScheduler scheduler;
    SimResult result;
    recovery::ResumeReport report;
    EXPECT_FALSE(recovery::resume_simulation(recovery_trace(1), scheduler,
                                             faulty_cluster(), options,
                                             result, report, &error));
    EXPECT_NE(error.find(where), std::string::npos) << error;
    EXPECT_EQ(slurp(path), wal);
  }
}

// ---------------------------------------------------------------------------
// Resume.

TEST(Recovery, ColdStartResumeJustRunsDurably) {
  const Trace trace = recovery_trace(1);
  std::vector<std::vector<PlannedGroup>> clean_plans;
  const SimResult clean =
      durable_run(trace, temp_path("cold_ref.wal"), &clean_plans);

  const std::string path = temp_path("cold_start.wal");
  std::remove(path.c_str());
  recovery::ResumeOptions options;
  options.wal_path = path;
  options.sink.fsync = DurableSinkOptions::Fsync::kNone;
  std::vector<std::vector<PlannedGroup>> plans;
  PlanRecorder scheduler(std::make_unique<MuriScheduler>(), &plans);
  SimResult result;
  recovery::ResumeReport report;
  std::string error;
  ASSERT_TRUE(recovery::resume_simulation(trace, scheduler, faulty_cluster(),
                                          options, result, report, &error))
      << error;
  EXPECT_EQ(report.recovered.state.records, 0);
  EXPECT_EQ(report.records_verified, 0);
  EXPECT_GT(report.records_appended, 0);
  expect_same_result(clean, result);
  EXPECT_EQ(slurp(path), slurp(temp_path("cold_ref.wal")));
}

TEST(Recovery, ResumeDetectsDivergence) {
  // A WAL from seed 1 cannot be resumed by a seed-4 run: the first
  // regenerated record that differs flags divergence instead of
  // corrupting the durable history.
  const std::string path = temp_path("diverge.wal");
  durable_run(recovery_trace(1), path, nullptr);

  recovery::ResumeOptions options;
  options.wal_path = path;
  options.sink.fsync = DurableSinkOptions::Fsync::kNone;
  MuriScheduler scheduler;
  SimResult result;
  recovery::ResumeReport report;
  std::string error;
  EXPECT_FALSE(recovery::resume_simulation(recovery_trace(4), scheduler,
                                           faulty_cluster(), options, result,
                                           report, &error));
  EXPECT_TRUE(report.diverged);
  EXPECT_NE(error.find("divergence"), std::string::npos);
}

TEST(Resume, VerifiesOnlyStateRecords) {
  // A crash left the first half of a state-tier WAL. The resumed run
  // regenerates the whole log, explanation records included; the sink
  // byte-verifies exactly the state records on disk, appends the rest,
  // and writes no explanation record.
  const Trace trace = recovery_trace(3);
  std::string jsonl;
  const std::string clean_path = temp_path("verify_state_clean.wal");
  durable_run(trace, clean_path, nullptr, &jsonl);
  const std::string clean_bytes = slurp(clean_path);
  const WalReadResult decoded = recovery::decode_wal(clean_bytes);
  const auto lines = [](const std::string& s) {
    return static_cast<std::int64_t>(std::count(s.begin(), s.end(), '\n'));
  };
  const std::int64_t state_records = lines(state_tier(jsonl));
  ASSERT_EQ(static_cast<std::int64_t>(decoded.records.size()), state_records);
  ASSERT_LT(state_records, lines(jsonl));

  const std::int64_t kept = state_records / 2;
  const std::string path = temp_path("verify_state.wal");
  std::string prefix;
  for (std::int64_t i = 0; i < kept; ++i) {
    recovery::append_wal_frame(prefix,
                               decoded.records[static_cast<std::size_t>(i)]);
  }
  spit(path, prefix);

  recovery::ResumeOptions options;
  options.wal_path = path;
  options.sink.fsync = DurableSinkOptions::Fsync::kNone;
  MuriScheduler scheduler;
  SimResult result;
  recovery::ResumeReport report;
  std::string error;
  ASSERT_TRUE(recovery::resume_simulation(trace, scheduler, faulty_cluster(),
                                          options, result, report, &error))
      << error;
  EXPECT_EQ(report.recovered.state.records, kept);
  EXPECT_EQ(report.records_verified, kept);
  EXPECT_EQ(report.records_appended, state_records - kept);
  EXPECT_EQ(slurp(path), clean_bytes);
}

// ---------------------------------------------------------------------------
// The acceptance sweep: kill at EVERY record boundary, recover by folding
// the surviving records, and converge with the uninterrupted run —
// bit-exact SimResult, identical plans, byte-identical WAL — for two
// seeds.

TEST(Recovery, KillAtEveryRecordBoundarySweepConverges) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Trace trace = recovery_trace(seed);
    const std::string tag = std::to_string(seed);
    const std::string clean_path = temp_path("sweep_clean_" + tag + ".wal");
    std::vector<std::vector<PlannedGroup>> clean_plans;
    const SimResult clean = durable_run(trace, clean_path, &clean_plans);
    const std::string clean_bytes = slurp(clean_path);
    WalReadResult decoded = recovery::decode_wal(clean_bytes);
    ASSERT_FALSE(decoded.torn);
    ASSERT_GT(decoded.records.size(), 50u);

    const std::string path = temp_path("sweep_" + tag + ".wal");
    for (std::size_t boundary = 0; boundary <= decoded.records.size();
         ++boundary) {
      // The WAL as a crash at this frame boundary leaves it. Adding
      // half of the next frame exercises torn-tail truncation on the
      // same boundaries at no extra simulation cost.
      std::string prefix;
      for (std::size_t i = 0; i < boundary; ++i) {
        recovery::append_wal_frame(prefix, decoded.records[i]);
      }
      if (boundary % 3 == 0 && boundary < decoded.records.size()) {
        std::string next;
        recovery::append_wal_frame(next, decoded.records[boundary]);
        prefix += next.substr(0, next.size() / 2);
      }
      spit(path, prefix);

      recovery::ResumeOptions options;
      options.wal_path = path;
      options.sink.fsync = DurableSinkOptions::Fsync::kNone;
      std::vector<std::vector<PlannedGroup>> plans;
      PlanRecorder scheduler(std::make_unique<MuriScheduler>(), &plans);
      SimResult result;
      recovery::ResumeReport report;
      std::string error;
      ASSERT_TRUE(recovery::resume_simulation(trace, scheduler,
                                              faulty_cluster(), options,
                                              result, report, &error))
          << "boundary " << boundary << ": " << error;
      ASSERT_FALSE(report.diverged) << "boundary " << boundary;

      expect_same_result(clean, result);
      ASSERT_EQ(plans.size(), clean_plans.size()) << "boundary " << boundary;
      for (std::size_t i = 0; i < plans.size(); ++i) {
        ASSERT_TRUE(same_plan(clean_plans[i], plans[i]))
            << "boundary " << boundary << " plan " << i;
      }
      ASSERT_EQ(slurp(path), clean_bytes) << "boundary " << boundary;
    }
  }
}

}  // namespace
}  // namespace muri
