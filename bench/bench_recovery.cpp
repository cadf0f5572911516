// Crash-recovery driver for the CI smoke job and for poking the durable
// write path by hand (EXPERIMENTS.md "Crash and recover a run").
//
// Clean run — simulate a small faulty cluster with the DecisionLog
// attached to a durable WAL, then write the deterministic slice of the
// SimResult as JSON:
//
//   bench_recovery --wal=run.wal --result-out=clean.json
//
// Crash run — same command under MURI_CRASH_AT=N (the sink honors the
// env only in this binary): the process _Exit(137)s at the boundary of
// record N, leaving a durable prefix (add MURI_CRASH_TORN=1 to leave a
// half-written frame instead). Recovery:
//
//   bench_recovery --wal=run.wal --resume --result-out=recovered.json
//
// recovers scheduler state from snapshot + suffix, re-executes, verifies
// every regenerated record against the durable prefix byte-for-byte, and
// appends the rest. `cmp clean.json recovered.json` (and cmp of the WALs)
// is the CI assertion: a resumed run converges to the uninterrupted one.
//
// The workload is fixed-shape and seeded (--seed/--jobs/--threads vary
// it), with job faults and machine crash/repair enabled so the WAL
// carries the full record vocabulary.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "job/trace.h"
#include "obs/provenance.h"
#include "recovery/durable.h"
#include "recovery/resume.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

namespace {

using namespace muri;

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string wal_path = flags.get("wal");
  if (wal_path.empty()) {
    std::cerr << "usage: bench_recovery --wal=PATH [--resume] "
                 "[--result-out=PATH] [--seed=N] [--jobs=N] [--threads=N] "
                 "[--fsync=none|interval|every_record] [--snapshot-every=N]\n";
    return 1;
  }
  const bool resume = flags.get_bool("resume");
  const std::string result_out = flags.get("result-out");
  const int seed = flags.get_int("seed", 1);
  const int jobs = flags.get_int("jobs", 60);
  const int threads = flags.get_int("threads", 1);
  const std::string fsync = flags.get("fsync", "interval");
  const int snapshot_every = flags.get_int("snapshot-every", 25);

  PhillyTraceOptions trace_options;
  trace_options.name = "recovery";
  trace_options.num_jobs = jobs;
  trace_options.seed = static_cast<std::uint64_t>(seed);
  trace_options.jobs_per_hour = 60;
  trace_options.duration_log_mean = 6.0;
  trace_options.max_duration = 4 * 3600;
  // Keep demands placeable on the small 4×4 cluster below.
  trace_options.gpu_count_weights = {0.72, 0.16, 0.12, 0, 0, 0};
  const Trace trace = generate_philly_like(trace_options);

  SimOptions sim;
  sim.cluster.num_machines = 4;
  sim.cluster.gpus_per_machine = 4;
  sim.schedule_interval = 120;
  sim.restart_penalty = 10;
  sim.mtbf_hours = 2.0;  // job faults
  sim.machine_faults.machine_mtbf_hours = 6.0;
  sim.machine_faults.machine_mttr_hours = 0.2;
  sim.max_time = 14 * 24 * 3600;  // safety stop, never reached in practice

  MuriOptions muri_options;
  muri_options.num_threads = threads;
  MuriScheduler scheduler(muri_options);

  recovery::DurableSinkOptions sink_options;
  if (fsync == "none") {
    sink_options.fsync = recovery::DurableSinkOptions::Fsync::kNone;
  } else if (fsync == "every_record") {
    sink_options.fsync = recovery::DurableSinkOptions::Fsync::kEveryRecord;
  } else {
    sink_options.fsync = recovery::DurableSinkOptions::Fsync::kInterval;
  }
  sink_options.snapshot_every_records = snapshot_every;

  SimResult result;
  if (resume) {
    recovery::ResumeOptions resume_options;
    resume_options.wal_path = wal_path;
    resume_options.sink = sink_options;
    recovery::ResumeReport report;
    std::string error;
    if (!recovery::resume_simulation(trace, scheduler, sim, resume_options,
                                     result, report, &error)) {
      std::cerr << "bench_recovery: resume failed: " << error << '\n';
      return 1;
    }
    std::cerr << "bench_recovery: recovered " << report.records_on_disk
              << " durable records"
              << (report.used_snapshot ? " (snapshot + " : " (full replay, ")
              << report.suffix_replayed << " replayed)"
              << (report.torn_tail ? ", torn tail truncated" : "")
              << "; verified " << report.records_verified << ", appended "
              << report.records_appended << '\n';
    std::cerr << "bench_recovery: recovered state: round "
              << report.recovered.round << ", "
              << report.recovered.running.size() << " running, "
              << report.recovered.finished.size() << " finished\n";
  } else {
    // Clean (or to-be-crashed) run: fresh WAL, crash env honored.
    sink_options.honor_crash_env = true;
    recovery::DurableSink sink(wal_path, sink_options);
    if (!sink.ok()) {
      std::cerr << "bench_recovery: " << sink.error() << '\n';
      return 1;
    }
    obs::DecisionLog log;
    log.set_sink(&sink);
    sim.decisions = &log;
    scheduler.set_decision_log(&log);
    result = run_simulation(trace, scheduler, sim);
    log.set_sink(nullptr);
    sink.close();
    if (!sink.ok()) {
      std::cerr << "bench_recovery: " << sink.error() << '\n';
      return 1;
    }
    std::cerr << "bench_recovery: wrote " << sink.records_appended()
              << " records to " << wal_path << '\n';
  }

  const std::string json = result_fingerprint(result) + "\n";
  if (!result_out.empty()) {
    if (!write_file(result_out, json)) {
      std::cerr << "bench_recovery: cannot write " << result_out << '\n';
      return 1;
    }
  } else {
    std::cout << json;
  }
  return 0;
}
