// Golden gate for the execution engine: what three simulator runs and one
// daemon replay produce at a fixed seed, pinned as CRC-32 + byte length
// per artifact. The expected digests live in tests/golden/test_golden.txt
// and are never regenerated: a mismatch prints the actual digests and
// fails, so any behaviour change of the engine shows up here.
//
// Pinned per simulator run: the SimResult fingerprint, the DecisionLog
// JSONL, the simulated-time Chrome trace, the jobtrace timelines JSON and
// the per-job latency report (`muri-report jobs`, text/csv/json) over the
// jobtrace fold of the DecisionLog. The daemon replay pins its decision
// stream after a projection that drops placement_skip.available_gpus and
// rounds the finish record's queueing/running/restart_overhead to 9
// significant digits, and the jobs report over its unprojected stream.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>

#include "job/trace.h"
#include "obs/jobtrace.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "recovery/wal.h"
#include "scheduler/baselines.h"
#include "scheduler/muri.h"
#include "service/daemon.h"
#include "service/http_client.h"
#include "sim/simulator.h"

namespace muri {
namespace {

std::string digest(const std::string& bytes) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%08x %zu",
                recovery::crc32_ieee(bytes.data(), bytes.size()),
                bytes.size());
  return buf;
}

// key -> "crc len" from the golden file.
std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> out;
  std::ifstream in(MURI_GOLDEN_DIGESTS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

void expect_digests(const std::map<std::string, std::string>& actual) {
  const auto golden = load_golden();
  bool all_match = true;
  for (const auto& [key, value] : actual) {
    const auto it = golden.find(key);
    if (it == golden.end() || it->second != value) {
      all_match = false;
      ADD_FAILURE() << key << ": expected "
                    << (it == golden.end() ? "<missing>" : it->second)
                    << ", actual " << value;
    }
  }
  if (!all_match) {
    std::string dump =
        std::string("actual digests (expected in ") + MURI_GOLDEN_DIGESTS +
        "):\n";
    for (const auto& [key, value] : actual) dump += key + " " + value + "\n";
    ADD_FAILURE() << dump;
  }
}

// The jobtrace fold over a decision stream, as `muri-report jobs` runs it.
std::vector<obs::JobTimeline> fold_timelines(const std::string& jsonl) {
  std::vector<obs::DecisionRecord> records;
  std::string error;
  EXPECT_TRUE(obs::parse_decision_log(jsonl, records, &error)) << error;
  obs::JobTraceLog fold;
  obs::build_job_traces(records, fold);
  return fold.timelines();
}

// Adds the digests of the per-job latency report over `ts`, in the three
// formats `muri-report jobs` renders.
void add_jobs_digests(const std::string& name,
                      const std::vector<obs::JobTimeline>& ts,
                      std::map<std::string, std::string>& out) {
  out[name + ".jobs_text"] = digest(obs::jobs_report_text(ts));
  out[name + ".jobs_csv"] = digest(obs::jobs_report_csv(ts));
  out[name + ".jobs_json"] = digest(obs::jobs_report_json(ts));
}

// One simulator run with every observability hook attached.
std::map<std::string, std::string> sim_digests(const std::string& name,
                                               const Trace& trace,
                                               Scheduler& scheduler,
                                               SimOptions options) {
  obs::Tracer tracer;
  obs::DecisionLog log;
  obs::JobTraceLog jobtrace;
  log.set_subscriber(&jobtrace);
  options.tracer = &tracer;
  options.decisions = &log;
  const SimResult result = run_simulation(trace, scheduler, options);
  std::map<std::string, std::string> digests = {
      {name + ".result", digest(result_fingerprint(result))},
      {name + ".decisions", digest(log.jsonl())},
      {name + ".trace", digest(tracer.chrome_trace_json())},
      {name + ".timelines", digest(obs::timelines_json(jobtrace.timelines()))},
  };
  const std::vector<obs::JobTimeline> folded = fold_timelines(log.jsonl());
  add_jobs_digests(name, folded, digests);
  // The live recorder carries the same whole-life facts as the fold.
  EXPECT_EQ(obs::jobs_report_csv(jobtrace.timelines()),
            obs::jobs_report_csv(folded));
  return digests;
}

Trace philly_trace(int jobs) {
  PhillyTraceOptions trace_options;
  trace_options.name = "golden";
  trace_options.num_jobs = jobs;
  trace_options.seed = 13;
  trace_options.jobs_per_hour = 60;
  trace_options.duration_log_mean = 6.0;
  trace_options.max_duration = 4 * 3600;
  return generate_philly_like(trace_options);
}

TEST(Golden, MuriLWithJobAndMachineFaultsAndStragglers) {
  SimOptions sim;
  sim.cluster.num_machines = 8;
  sim.cluster.gpus_per_machine = 8;
  sim.schedule_interval = 120;
  sim.restart_penalty = 10;
  sim.mtbf_hours = 2.0;
  sim.machine_faults.machine_mtbf_hours = 6.0;
  sim.machine_faults.machine_mttr_hours = 0.2;
  sim.machine_faults.straggler_rate_per_hour = 0.5;
  sim.max_time = 14 * 24 * 3600;
  MuriScheduler scheduler;
  expect_digests(sim_digests("muri_l_faults", philly_trace(300), scheduler,
                             sim));
}

TEST(Golden, MuriSOnTestbedPrefix) {
  Trace trace = testbed_trace();
  trace.jobs.resize(120);
  SimOptions sim;
  sim.durations_known = true;
  MuriOptions opt;
  opt.durations_known = true;
  MuriScheduler scheduler(opt);
  expect_digests(sim_digests("muri_s_testbed", trace, scheduler, sim));
}

TEST(Golden, AntManUncoordinated) {
  SimOptions sim;
  AntManScheduler scheduler;
  expect_digests(sim_digests("antman", zero_arrivals(philly_trace(120)),
                             scheduler, sim));
}

// The two fields the simulator and the pre-merge daemon engine computed
// differently: placement_skip.available_gpus is dropped and the finish
// breakdown is rounded to 9 significant digits.
std::string project_daemon_stream(const std::string& jsonl) {
  static const std::regex kAvailable(",\"available_gpus\":[-0-9.eE+]+");
  static const std::regex kBreakdown(
      "\"(queueing|running|restart_overhead)\":([-0-9.eE+]+)");
  std::istringstream in(jsonl);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"placement_skip\"") != std::string::npos) {
      line = std::regex_replace(line, kAvailable, "");
    } else if (line.find("\"type\":\"finish\"") != std::string::npos) {
      std::string rounded;
      auto begin = line.cbegin();
      for (std::sregex_iterator it(line.begin(), line.end(), kBreakdown), end;
           it != end; ++it) {
        const std::smatch& m = *it;
        rounded.append(begin, m[0].first);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "\"%s\":%.9g", m[1].str().c_str(),
                      std::stod(m[2].str()));
        rounded += buf;
        begin = m[0].second;
      }
      rounded.append(begin, line.cend());
      line = std::move(rounded);
    }
    out += line;
    out += '\n';
  }
  return out;
}

TEST(Golden, DaemonManualReplayWithGracefulStop) {
  service::DaemonOptions options;
  options.manual_time = true;
  options.cluster.num_machines = 4;
  options.cluster.gpus_per_machine = 4;
  options.round_interval_s = 360;
  service::MuriDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  const auto request = [&](const char* method, const std::string& path,
                           const std::string& body) {
    service::ClientResponse resp;
    std::string err;
    EXPECT_TRUE(service::http_request(daemon.port(), method, path, body, resp,
                                      &err))
        << err;
    return resp;
  };

  // The first 60 testbed jobs at their submit times; every seventh gets a
  // short start deadline so the deadline cancel path runs too.
  Trace trace = testbed_trace();
  trace.jobs.resize(60);
  double clock = 0;
  int submitted = 0;
  for (const Job& job : trace.jobs) {
    if (job.submit_time > clock) {
      daemon.step(job.submit_time - clock);
      clock = job.submit_time;
    }
    std::string body = "{\"model\":\"" + std::string(to_string(job.model)) +
                       "\",\"gpus\":" + std::to_string(job.num_gpus) +
                       ",\"iterations\":" + std::to_string(job.iterations);
    if (submitted % 7 == 3) body += ",\"deadline_s\":600";
    body += "}";
    const auto resp = request("POST", "/jobs", body);
    ASSERT_EQ(resp.status, 202) << resp.body;
    ++submitted;
  }
  // Cancel one job by id, then run long enough for most jobs to finish.
  daemon.step(60);
  EXPECT_EQ(request("DELETE", "/jobs/5", "").status, 200);
  for (int i = 0; i < 150; ++i) daemon.step(120);
  // Graceful stop: drains, checkpoints progress, writes daemon_stop.
  daemon.stop("golden");

  std::map<std::string, std::string> digests = {
      {"daemon_replay.decisions",
       digest(project_daemon_stream(daemon.decisions_jsonl()))}};
  add_jobs_digests("daemon_replay", fold_timelines(daemon.decisions_jsonl()),
                   digests);
  expect_digests(digests);
}

}  // namespace
}  // namespace muri
