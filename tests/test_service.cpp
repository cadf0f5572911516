// Service-layer integration tests: MuriDaemon in manual_time mode driven
// deterministically through the real HTTP listener — submit/status/cancel
// lifecycle, idempotent names, backpressure (429 + Retry-After), request
// validation, the decisions endpoint against the schema validator,
// graceful-stop queue draining, and WAL resume (both after a clean stop
// and from a crash-image copy of a live WAL). The jobs report, rendered
// from the jobtrace fold, is checked against the same daemon-produced log
// and across a crash and resume, and every live /jobs/<id>/timeline must
// equal the fold of the daemon's decision stream.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/jobtrace.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "recovery/wal.h"
#include "service/daemon.h"
#include "service/http_client.h"

namespace muri::service {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "muri_service_" + name;
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

DaemonOptions manual_options() {
  DaemonOptions options;
  options.manual_time = true;
  options.cluster.num_machines = 2;
  options.cluster.gpus_per_machine = 4;
  options.round_interval_s = 360;
  return options;
}

ClientResponse post_json(const MuriDaemon& daemon, const std::string& path,
                         const std::string& body) {
  ClientResponse resp;
  std::string error;
  EXPECT_TRUE(http_request(daemon.port(), "POST", path, body, resp, &error))
      << error;
  return resp;
}

ClientResponse get(const MuriDaemon& daemon, const std::string& path) {
  ClientResponse resp;
  std::string error;
  EXPECT_TRUE(http_request(daemon.port(), "GET", path, "", resp, &error))
      << error;
  return resp;
}

ClientResponse del(const MuriDaemon& daemon, const std::string& path) {
  ClientResponse resp;
  std::string error;
  EXPECT_TRUE(
      http_request(daemon.port(), "DELETE", path, "", resp, &error))
      << error;
  return resp;
}

obs::JsonValue parse(const std::string& body) {
  obs::JsonValue v;
  std::string error;
  EXPECT_TRUE(obs::parse_json(body, v, &error)) << error << ": " << body;
  return v;
}

// Submits one job, returns its id (asserts 202).
JobId submit(const MuriDaemon& daemon, const std::string& model, int gpus,
             long long iterations, const std::string& name = "") {
  std::string body = "{\"model\":\"" + model +
                     "\",\"gpus\":" + std::to_string(gpus) +
                     ",\"iterations\":" + std::to_string(iterations);
  if (!name.empty()) body += ",\"name\":\"" + name + "\"";
  body += "}";
  const auto resp = post_json(daemon, "/jobs", body);
  EXPECT_EQ(resp.status, 202) << resp.body;
  const auto json = parse(resp.body);
  EXPECT_TRUE(json.at("job").is_number()) << resp.body;
  return static_cast<JobId>(json.at("job").number);
}

std::string state_of(const MuriDaemon& daemon, JobId id) {
  const auto resp = get(daemon, "/jobs/" + std::to_string(id));
  if (resp.status != 200) return "http:" + std::to_string(resp.status);
  return parse(resp.body).at("state").string;
}

// Steps the manual clock until the job reaches a terminal state (or the
// step budget runs out).
std::string run_to_completion(MuriDaemon& daemon, JobId id,
                              double step_s = 60, int max_steps = 4000) {
  for (int i = 0; i < max_steps; ++i) {
    const std::string state = state_of(daemon, id);
    if (state == "finished" || state == "cancelled") return state;
    daemon.step(step_s);
  }
  return state_of(daemon, id);
}

TEST(ServiceDaemon, SubmitRunsAndFinishesAJob) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  const JobId id = submit(daemon, "resnet18", 2, 500);
  // Accepted but not yet drained: the admission queue holds it.
  EXPECT_EQ(state_of(daemon, id), "admitted");

  daemon.step(0);  // drain + immediate round (manual mode skips debounce)
  const auto status = parse(get(daemon, "/jobs/" + std::to_string(id)).body);
  EXPECT_EQ(status.at("state").string, "running");
  EXPECT_EQ(status.at("model").string, "resnet18");
  EXPECT_DOUBLE_EQ(status.at("gpus").number, 2);

  EXPECT_EQ(run_to_completion(daemon, id), "finished");
  const auto done = parse(get(daemon, "/jobs/" + std::to_string(id)).body);
  EXPECT_GE(done.at("end_t").number, done.at("submit_t").number);
  EXPECT_DOUBLE_EQ(done.at("done").number, 500);

  daemon.stop();
}

TEST(ServiceDaemon, StatusExplainEmbedsDecisionHistory) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  const JobId id = submit(daemon, "vgg16", 1, 200);
  daemon.step(0);

  const auto resp =
      get(daemon, "/jobs/" + std::to_string(id) + "?explain=1");
  ASSERT_EQ(resp.status, 200);
  const auto json = parse(resp.body);
  EXPECT_TRUE(json.at("status").is_object());
  EXPECT_TRUE(json.at("explain").is_object()) << resp.body;
  EXPECT_DOUBLE_EQ(json.at("explain").at("job").number,
                   static_cast<double>(id));
  daemon.stop();
}

TEST(ServiceDaemon, DuplicateNameReturnsOriginalJob) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  const JobId id = submit(daemon, "bert", 1, 300, "train-a");
  const auto dup = post_json(
      daemon, "/jobs",
      "{\"model\":\"bert\",\"gpus\":1,\"iterations\":300,"
      "\"name\":\"train-a\"}");
  EXPECT_EQ(dup.status, 200) << dup.body;  // not 202: nothing new admitted
  const auto json = parse(dup.body);
  EXPECT_DOUBLE_EQ(json.at("job").number, static_cast<double>(id));
  EXPECT_TRUE(json.at("duplicate").boolean) << dup.body;

  // Exactly one job exists.
  daemon.step(0);
  const auto list = parse(get(daemon, "/jobs").body);
  EXPECT_EQ(list.at("jobs").array.size(), 1u);
  daemon.stop();
}

TEST(ServiceDaemon, FullQueueAnswers429WithRetryAfter) {
  DaemonOptions options = manual_options();
  options.queue_capacity = 2;
  options.retry_after_s = 7;
  MuriDaemon daemon(std::move(options));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  // Manual time: nothing drains until step(), so the queue fills.
  submit(daemon, "resnet18", 1, 100);
  submit(daemon, "resnet18", 1, 100);
  const auto rejected = post_json(
      daemon, "/jobs", "{\"model\":\"resnet18\",\"gpus\":1,\"iterations\":100}");
  EXPECT_EQ(rejected.status, 429) << rejected.body;
  EXPECT_EQ(rejected.header("retry-after"), "7");

  // Draining frees capacity; the retry succeeds, with the id the
  // rejected submission did not take.
  daemon.step(0);
  EXPECT_EQ(submit(daemon, "resnet18", 1, 100), 2);
  EXPECT_EQ(daemon.queue_stats().rejected_full, 1);
  daemon.stop();
}

TEST(ServiceDaemon, RejectsMalformedSubmissions) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  EXPECT_EQ(post_json(daemon, "/jobs", "{not json").status, 400);
  EXPECT_EQ(post_json(daemon, "/jobs",
                      "{\"model\":\"nosuch\",\"gpus\":1,\"iterations\":1}")
                .status,
            400);
  EXPECT_EQ(post_json(daemon, "/jobs",
                      "{\"model\":\"resnet18\",\"gpus\":0,\"iterations\":1}")
                .status,
            400);
  EXPECT_EQ(post_json(daemon, "/jobs",
                      "{\"model\":\"resnet18\",\"gpus\":999,"
                      "\"iterations\":1}")
                .status,
            400);
  EXPECT_EQ(post_json(daemon, "/jobs",
                      "{\"model\":\"resnet18\",\"gpus\":1,\"iterations\":0}")
                .status,
            400);
  // Nothing slipped through.
  EXPECT_EQ(daemon.queue_stats().accepted, 0);
  daemon.stop();
}

// Numbers outside the int / int64 range are refused before any cast; a
// normal submit still passes.
TEST(ServiceDaemon, RejectsOutOfRangeNumbersInSubmit) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  EXPECT_EQ(post_json(daemon, "/jobs",
                      "{\"model\":\"resnet18\",\"gpus\":1e300,"
                      "\"iterations\":1}")
                .status,
            400);
  EXPECT_EQ(post_json(daemon, "/jobs",
                      "{\"model\":\"resnet18\",\"gpus\":1,"
                      "\"iterations\":1e300}")
                .status,
            400);
  EXPECT_EQ(post_json(daemon, "/jobs",
                      "{\"model\":\"resnet18\",\"gpus\":1,"
                      "\"iterations\":-1e300}")
                .status,
            400);
  EXPECT_EQ(daemon.queue_stats().accepted, 0);

  const JobId id = submit(daemon, "resnet18", 1, 100);
  EXPECT_EQ(daemon.queue_stats().accepted, 1);
  EXPECT_EQ(run_to_completion(daemon, id), "finished");
  const auto done = parse(get(daemon, "/jobs/" + std::to_string(id)).body);
  EXPECT_DOUBLE_EQ(done.at("iterations").number, 100);
  daemon.stop();
}

TEST(ServiceDaemon, CancelCoversQueuedRunningAndTerminalStates) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  // Cancel while still in the admission queue: the engine never sees it.
  const JobId queued = submit(daemon, "resnet18", 1, 100);
  EXPECT_EQ(del(daemon, "/jobs/" + std::to_string(queued)).status, 200);
  daemon.step(0);
  EXPECT_EQ(get(daemon, "/jobs/" + std::to_string(queued)).status, 404);

  // Cancel while running.
  const JobId running = submit(daemon, "resnet18", 1, 100000);
  daemon.step(0);
  ASSERT_EQ(state_of(daemon, running), "running");
  EXPECT_EQ(del(daemon, "/jobs/" + std::to_string(running)).status, 200);
  EXPECT_EQ(state_of(daemon, running), "cancelled");

  // A terminal job cannot be cancelled again.
  EXPECT_EQ(del(daemon, "/jobs/" + std::to_string(running)).status, 409);
  // Unknown ids are a 404.
  EXPECT_EQ(del(daemon, "/jobs/12345").status, 404);
  daemon.stop();
}

TEST(ServiceDaemon, DecisionsEndpointPassesTheSchemaValidator) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  const JobId a = submit(daemon, "resnet18", 2, 400);
  const JobId b = submit(daemon, "vgg19", 2, 400);
  daemon.step(0);
  EXPECT_EQ(run_to_completion(daemon, a), "finished");
  EXPECT_EQ(run_to_completion(daemon, b), "finished");

  const auto resp = get(daemon, "/decisions");
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.header("content-type"), "application/x-ndjson");
  std::string validate_error;
  EXPECT_TRUE(obs::validate_decision_log(resp.body, &validate_error))
      << validate_error;
  daemon.stop();
}

// The jobtrace fold over a decision stream: the jobs report's rows.
std::vector<obs::JobTimeline> fold_timelines(const std::string& jsonl) {
  std::vector<obs::DecisionRecord> records;
  std::string error;
  EXPECT_TRUE(obs::parse_decision_log(jsonl, records, &error)) << error;
  obs::JobTraceLog fold;
  obs::build_job_traces(records, fold);
  return fold.timelines();
}

TEST(ServiceDaemon, JobsReportFoldsTheDaemonLog) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  const JobId a = submit(daemon, "resnet18", 1, 300);
  daemon.step(0);
  EXPECT_EQ(run_to_completion(daemon, a), "finished");
  const JobId cancelled = submit(daemon, "bert", 1, 100000);
  daemon.step(0);
  EXPECT_EQ(del(daemon, "/jobs/" + std::to_string(cancelled)).status, 200);

  const auto report = fold_timelines(daemon.decisions_jsonl());
  ASSERT_EQ(report.size(), 2u);
  EXPECT_TRUE(report[1].cancelled);
  const auto json = parse(obs::jobs_report_json(report));
  EXPECT_EQ(json.at("finished").number, 1);
  EXPECT_EQ(json.at("cancelled").number, 1);
  EXPECT_EQ(json.at("in_flight").number, 0);

  const auto& row = report[0];
  EXPECT_EQ(row.job, a);
  EXPECT_TRUE(row.finished);
  ASSERT_TRUE(row.has_wait());
  EXPECT_GE(row.wait(), 0);
  ASSERT_TRUE(row.has_service_jct());
  EXPECT_GT(row.service_jct(), 0);

  // Renderers are byte-stable: same report, same bytes.
  EXPECT_EQ(obs::jobs_report_text(report), obs::jobs_report_text(report));
  EXPECT_EQ(obs::jobs_report_csv(report), obs::jobs_report_csv(report));
  EXPECT_EQ(obs::jobs_report_json(report), obs::jobs_report_json(report));
  const std::string csv = obs::jobs_report_csv(report);
  EXPECT_NE(csv.find("job,state,submit_t,first_scheduled_t"),
            std::string::npos)
      << csv;
  daemon.stop();
}

TEST(ServiceDaemon, GracefulStopDrainsTheQueueIntoTheWal) {
  const std::string wal = temp_path("drain.wal");
  std::remove(wal.c_str());
  JobId id = kInvalidJob;
  {
    DaemonOptions options = manual_options();
    options.wal_path = wal;
    MuriDaemon daemon(std::move(options));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    // Accepted but never drained by a step: stop() must persist it.
    id = submit(daemon, "gpt2", 2, 600, "drained-job");
    daemon.stop();
  }

  // The restarted daemon recovers the job from the WAL and finishes it.
  DaemonOptions options = manual_options();
  options.wal_path = wal;
  options.resume = true;
  MuriDaemon daemon(std::move(options));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  const auto resp = get(daemon, "/jobs/" + std::to_string(id));
  ASSERT_EQ(resp.status, 200) << "job lost across restart";
  const auto json = parse(resp.body);
  EXPECT_EQ(json.at("model").string, "gpt2");
  EXPECT_EQ(json.at("name").string, "drained-job");
  daemon.step(0);
  EXPECT_EQ(run_to_completion(daemon, id), "finished");
  daemon.stop();
}

// A restored spec passes the range check a POST does, on the int64 value
// before it is narrowed; a spec out of range fails start() and names the
// job and the field. Each WAL is one or two CRC-valid frames.
TEST(ServiceDaemon, ResumeRejectsOutOfRangeSpecsInTheWal) {
  const std::string wal = temp_path("out_of_range.wal");
  const auto submit_record = [](const std::string& job,
                                const std::string& spec) {
    return "{\"type\":\"job_submit\",\"round\":0,\"t\":5,\"job\":" + job +
           ",\"model\":\"resnet18\"," + spec + "}";
  };
  const auto restart_from = [&](const std::vector<std::string>& records,
                                std::string& error) {
    std::string bytes;
    for (const std::string& record : records) {
      recovery::append_wal_frame(bytes, record);
    }
    spit(wal, bytes);
    DaemonOptions options = manual_options();  // 8 GPUs
    options.wal_path = wal;
    options.resume = true;
    auto daemon = std::make_unique<MuriDaemon>(std::move(options));
    error.clear();
    if (!daemon->start(&error)) daemon.reset();
    return daemon;
  };
  const auto restart = [&](const std::string& job, const std::string& spec,
                           std::string& error) {
    return restart_from({submit_record(job, spec)}, error);
  };
  const struct {
    const char* job;
    const char* spec;
    const char* field;
  } cases[] = {
      {"3", "\"gpus\":1,\"iterations\":1e300", "job 3: \"iterations\""},
      {"3", "\"gpus\":1e300,\"iterations\":100", "job 3: \"gpus\""},
      {"3", "\"gpus\":9,\"iterations\":100",
       "job 3: \"gpus\" must be in [1, 8]"},
      {"-2", "\"gpus\":1,\"iterations\":100", "job -2: ids"},
      {"1e300", "\"gpus\":1,\"iterations\":100",
       "job 9223372036854775807: ids"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.job) + " " + c.spec);
    std::string error;
    EXPECT_EQ(restart(c.job, c.spec, error), nullptr);
    EXPECT_NE(error.find(c.field), std::string::npos) << error;
  }

  // The same frame in range restores the job and hands out the next id.
  std::string error;
  auto daemon = restart("3", "\"gpus\":8,\"iterations\":100", error);
  ASSERT_NE(daemon, nullptr) << error;
  EXPECT_EQ(state_of(*daemon, 3), "queued");
  EXPECT_EQ(submit(*daemon, "resnet18", 1, 100), 4);
  daemon->stop();

  // A high id restarts without a job table sized by the id: alone in the
  // restart set, or named only by a queued cancel.
  constexpr JobId kHigh = JobId{1} << 45;
  const std::string high = std::to_string(kHigh);
  daemon = restart(high, "\"gpus\":1,\"iterations\":100", error);
  ASSERT_NE(daemon, nullptr) << error;
  EXPECT_EQ(state_of(*daemon, kHigh), "queued");
  EXPECT_EQ(submit(*daemon, "resnet18", 1, 100), kHigh + 1);
  daemon->step(0);
  EXPECT_EQ(state_of(*daemon, kHigh + 1), "running");
  daemon->stop();
  daemon = restart_from({"{\"type\":\"job_cancel\",\"round\":0,\"t\":5,"
                         "\"job\":" + high + ",\"reason\":\"client_queued\"}"},
                        error);
  ASSERT_NE(daemon, nullptr) << error;
  EXPECT_EQ(submit(*daemon, "resnet18", 1, 100), kHigh + 1);
  daemon->step(0);
  EXPECT_EQ(state_of(*daemon, kHigh + 1), "running");
  daemon->stop();

  // Restored ids spanning more ids than the WAL has records are refused.
  EXPECT_EQ(restart_from({submit_record("0", "\"gpus\":1,\"iterations\":100"),
                          submit_record(high, "\"gpus\":1,\"iterations\":100")},
                         error),
            nullptr);
  EXPECT_EQ(error.rfind(wal + ": job " + high + ": ids must lie within 2 ", 0),
            0u)
      << error;
}

TEST(ServiceDaemon, ResumesFromACrashImageOfALiveWal) {
  const std::string wal = temp_path("crash_live.wal");
  const std::string image = temp_path("crash_image.wal");
  std::remove(wal.c_str());
  JobId id = kInvalidJob;
  double progress_before = 0;
  {
    DaemonOptions options = manual_options();
    options.wal_path = wal;
    options.fsync = recovery::DurableSinkOptions::Fsync::kEveryRecord;
    MuriDaemon daemon(std::move(options));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    id = submit(daemon, "resnet18", 1, 100000);
    daemon.step(0);
    daemon.step(600);
    const auto json = parse(get(daemon, "/jobs/" + std::to_string(id)).body);
    EXPECT_EQ(json.at("state").string, "running");
    progress_before = json.at("done").number;
    EXPECT_GT(progress_before, 0);

    // Copy the WAL while the daemon is live: the moral equivalent of a
    // kill -9 — no daemon_stop, no progress checkpoint in the image.
    spit(image, slurp(wal));
    daemon.stop();
  }

  DaemonOptions options = manual_options();
  options.wal_path = image;
  options.resume = true;
  MuriDaemon daemon(std::move(options));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  const auto resp = get(daemon, "/jobs/" + std::to_string(id));
  ASSERT_EQ(resp.status, 200) << "job lost in crash image";
  // Restored jobs re-enter as queued; the first post-resume round
  // re-places them.
  EXPECT_EQ(parse(resp.body).at("state").string, "queued");
  daemon.step(0);
  const auto json = parse(get(daemon, "/jobs/" + std::to_string(id)).body);
  EXPECT_EQ(json.at("state").string, "running");
  // Submission time survives recovery (the queueing clock is durable).
  EXPECT_GE(json.at("submit_t").number, 0);

  // The resumed daemon's log still validates, and the job can finish.
  std::string validate_error;
  EXPECT_TRUE(
      obs::validate_decision_log(daemon.decisions_jsonl(), &validate_error))
      << validate_error;
  daemon.stop();
}

// The daemon_start record of a daemon's in-memory log.
obs::JsonValue daemon_start_of(const MuriDaemon& daemon) {
  std::vector<obs::DecisionRecord> records;
  EXPECT_TRUE(obs::parse_decision_log(daemon.decisions_jsonl(), records));
  for (const obs::DecisionRecord& rec : records) {
    if (rec.value.at("type").string == "daemon_start") return rec.value;
  }
  ADD_FAILURE() << "no daemon_start record";
  return {};
}

// The restart set: what a graceful stop leaves in the WAL comes back with
// the same ids, names, progress and start deadlines, across two restarts
// in a row (the second one reads specs from the first run's job_submit
// records and progress from the job_restore records the first restart
// wrote).
TEST(ServiceDaemon, RestartKeepsIdsNamesAndProgress) {
  const std::string wal = temp_path("restart_set.wal");
  std::remove(wal.c_str());
  const auto options_for = [&](bool resume) {
    DaemonOptions options = manual_options();
    options.scheduler = "fifo";  // the 8-GPU job keeps the queued one out
    options.wal_path = wal;
    options.resume = resume;
    return options;
  };
  JobId running = kInvalidJob;
  JobId queued = kInvalidJob;
  JobId deadline = kInvalidJob;
  JobId retired = kInvalidJob;
  JobId cancelled = kInvalidJob;
  double checkpoint = 0;
  {
    MuriDaemon daemon(options_for(false));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    EXPECT_FALSE(daemon_start_of(daemon).at("resumed").is_number());
    // A start deadline that has passed by the restart, but the job
    // started long before it.
    const auto first = post_json(
        daemon, "/jobs",
        "{\"model\":\"resnet18\",\"gpus\":8,\"iterations\":1000000,"
        "\"name\":\"keep-running\",\"deadline_s\":300}");
    ASSERT_EQ(first.status, 202) << first.body;
    running = static_cast<JobId>(parse(first.body).at("job").number);
    daemon.step(0);
    daemon.step(600);
    queued = submit(daemon, "gpt2", 8, 600, "keep-queued");
    // A start deadline still ahead at each restart, missed after them.
    const auto late = post_json(
        daemon, "/jobs",
        "{\"model\":\"bert\",\"gpus\":8,\"iterations\":600,"
        "\"deadline_s\":2000}");
    ASSERT_EQ(late.status, 202) << late.body;
    deadline = static_cast<JobId>(parse(late.body).at("job").number);
    // Cancelled in the engine: its job_cancel retires a submitted job.
    retired = submit(daemon, "vgg16", 8, 600, "retired");
    daemon.step(0);
    EXPECT_EQ(del(daemon, "/jobs/" + std::to_string(retired)).status, 200);
    // The highest id is cancelled while still in the admission queue: it
    // never reaches the engine, only a job_cancel names it.
    cancelled = submit(daemon, "vgg16", 1, 600);
    EXPECT_EQ(del(daemon, "/jobs/" + std::to_string(cancelled)).status, 200);
    EXPECT_EQ(state_of(daemon, queued), "queued");
    checkpoint =
        parse(get(daemon, "/jobs/" + std::to_string(running)).body)
            .at("done")
            .number;
    EXPECT_GT(checkpoint, 0);
    daemon.stop();
  }

  JobId next = cancelled + 1;
  for (int restart = 1; restart <= 2; ++restart) {
    SCOPED_TRACE("restart " + std::to_string(restart));
    MuriDaemon daemon(options_for(true));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    EXPECT_EQ(daemon_start_of(daemon).at("resumed").number, 1);

    const auto first =
        parse(get(daemon, "/jobs/" + std::to_string(running)).body);
    EXPECT_EQ(first.at("name").string, "keep-running");
    EXPECT_EQ(first.at("gpus").number, 8);
    EXPECT_EQ(first.at("iterations").number, 1000000);
    EXPECT_EQ(first.at("done").number, checkpoint);
    EXPECT_EQ(state_of(daemon, queued), "queued");
    EXPECT_EQ(state_of(daemon, deadline), "queued");
    EXPECT_EQ(state_of(daemon, retired), "http:404");
    EXPECT_EQ(state_of(daemon, cancelled), "http:404");

    // Names still dedupe to the original ids.
    const auto dup = post_json(
        daemon, "/jobs",
        "{\"model\":\"gpt2\",\"gpus\":8,\"iterations\":600,"
        "\"name\":\"keep-queued\"}");
    EXPECT_EQ(dup.status, 200) << dup.body;
    EXPECT_EQ(parse(dup.body).at("job").number, static_cast<double>(queued));

    // The checkpointed progress continues.
    daemon.step(0);
    daemon.step(600);
    const double done =
        parse(get(daemon, "/jobs/" + std::to_string(running)).body)
            .at("done")
            .number;
    EXPECT_GT(done, checkpoint);
    EXPECT_EQ(state_of(daemon, running), "running");
    checkpoint = done;

    // The next id follows the highest id any record named.
    EXPECT_EQ(submit(daemon, "resnet18", 1, 600), next);
    ++next;
    if (restart == 2) {
      daemon.step(1200);
      EXPECT_EQ(state_of(daemon, deadline), "cancelled");
      EXPECT_EQ(state_of(daemon, running), "running");
    }
    daemon.stop();
  }
}

// Every record frame of a WAL file, parsed (the decision stream
// `muri-report jobs` reads).
std::vector<obs::DecisionRecord> wal_records(const std::string& path) {
  recovery::WalReadResult decoded;
  std::string error;
  EXPECT_TRUE(recovery::read_wal_file(path, decoded, &error)) << error;
  std::string jsonl;
  for (const std::string& record : decoded.records) {
    jsonl += record;
    jsonl += '\n';
  }
  std::vector<obs::DecisionRecord> records;
  EXPECT_TRUE(obs::parse_decision_log(jsonl, records, &error)) << error;
  return records;
}

// The first `type` record naming `job` (in "job" or in a "jobs" array);
// its "t", or -1 when there is none.
double first_t(const std::vector<obs::DecisionRecord>& records,
               const std::string& type, JobId job) {
  for (const obs::DecisionRecord& rec : records) {
    const obs::JsonValue& v = rec.value;
    if (v.at("type").string != type) continue;
    bool names_job = v.at("job").is_number() &&
                     static_cast<JobId>(v.at("job").number) == job;
    for (const obs::JsonValue& j : v.at("jobs").array) {
      names_job = names_job || static_cast<JobId>(j.number) == job;
    }
    if (names_job) return v.at("t").number;
  }
  return -1;
}

TEST(ServiceDaemon, JobsReportKeepsPreCrashInstantsOfRestoredJobs) {
  const std::string wal = temp_path("report_live.wal");
  const std::string image = temp_path("report_image.wal");
  std::remove(wal.c_str());
  JobId id = kInvalidJob;
  {
    DaemonOptions options = manual_options();
    options.wal_path = wal;
    options.fsync = recovery::DurableSinkOptions::Fsync::kEveryRecord;
    MuriDaemon daemon(std::move(options));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    daemon.step(45);
    id = submit(daemon, "resnet18", 1, 20000);
    daemon.step(0);
    daemon.step(600);
    ASSERT_EQ(state_of(daemon, id), "running");
    spit(image, slurp(wal));  // crash image: no daemon_stop
    daemon.stop();
  }
  const auto pre_crash = wal_records(image);
  const double submit_t = first_t(pre_crash, "job_submit", id);
  const double placed_t = first_t(pre_crash, "placement", id);
  ASSERT_GE(submit_t, 0);
  ASSERT_GE(placed_t, submit_t);

  DaemonOptions options = manual_options();
  options.wal_path = image;
  options.resume = true;
  MuriDaemon daemon(std::move(options));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  daemon.step(0);
  EXPECT_EQ(run_to_completion(daemon, id), "finished");
  daemon.stop();

  // The resumed WAL re-admits the job and re-places it later; the report
  // row still carries the pre-crash submit and first placement.
  const auto records = wal_records(image);
  const double restore_t = first_t(records, "job_restore", id);
  ASSERT_GT(restore_t, placed_t);
  obs::JobTraceLog fold;
  obs::build_job_traces(records, fold);
  const auto timelines = fold.timelines();
  ASSERT_EQ(timelines.size(), 1u);
  EXPECT_TRUE(timelines[0].restored);
  const auto report = parse(obs::jobs_report_json(timelines));
  ASSERT_EQ(report.at("jobs").array.size(), 1u);
  const auto& row = report.at("jobs").array[0];
  EXPECT_EQ(row.at("job").number, static_cast<double>(id));
  EXPECT_EQ(row.at("state").string, "finished");
  EXPECT_EQ(row.at("submit_t").number, submit_t);
  EXPECT_EQ(row.at("first_scheduled_t").number, placed_t);
  EXPECT_EQ(row.at("jct_s").number, row.at("end_t").number - submit_t);
}

TEST(ServiceDaemon, UnknownSchedulerFailsToStart) {
  DaemonOptions options = manual_options();
  options.scheduler = "nosuch";
  MuriDaemon daemon(std::move(options));
  std::string error;
  EXPECT_FALSE(daemon.start(&error));
  EXPECT_NE(error.find("nosuch"), std::string::npos) << error;
}

TEST(ServiceDaemon, MetricsExposeDaemonGauges) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  submit(daemon, "resnet18", 1, 400);
  daemon.step(0);

  const auto resp = get(daemon, "/metrics");
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("muri_daemon_active_jobs"), std::string::npos);
  EXPECT_NE(resp.body.find("muri_daemon_rounds_total"), std::string::npos);
  EXPECT_NE(resp.body.find("muri_daemon_sim_time"), std::string::npos);
  daemon.stop();
}

// The value of the unlabelled series `name` in a Prometheus text body,
// or -1 when the body has no such line.
double metric_value(const std::string& body, const std::string& name) {
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, name.size() + 1, name + " ") == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return -1;
}

TEST(ServiceDaemon, MetricsExposeTheSchedulersSeries) {
  for (const char* scheduler : {"muri-l", "muri-s"}) {
    DaemonOptions options = manual_options();
    options.scheduler = scheduler;
    MuriDaemon daemon(std::move(options));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    const JobId id = submit(daemon, "resnet18", 1, 400);
    EXPECT_EQ(run_to_completion(daemon, id), "finished");

    const auto resp = get(daemon, "/metrics");
    ASSERT_EQ(resp.status, 200);
    EXPECT_GE(metric_value(resp.body, "muri_sched_rounds_total"), 1)
        << scheduler;
    EXPECT_GE(metric_value(resp.body, "muri_sched_quotient_solves_total"), 0)
        << scheduler;
    EXPECT_GE(metric_value(resp.body, "muri_decision_groups_formed_total"), 0)
        << scheduler;
    daemon.stop();
  }
}

TEST(ServiceDaemon, JobApiErrorsCarryStructuredBodies) {
  // Every job-API error body is {"error": ..., "code": ...} so clients
  // and the loadgen never have to scrape free text.
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  auto expect_error_body = [&](const ClientResponse& resp, int code) {
    EXPECT_EQ(resp.status, code);
    const auto json = parse(resp.body);
    EXPECT_TRUE(json.at("error").is_string()) << resp.body;
    EXPECT_FALSE(json.at("error").string.empty()) << resp.body;
    EXPECT_TRUE(json.at("code").is_number()) << resp.body;
    EXPECT_EQ(static_cast<int>(json.at("code").number), code) << resp.body;
  };

  expect_error_body(get(daemon, "/jobs/12345"), 404);
  expect_error_body(del(daemon, "/jobs/12345"), 404);
  expect_error_body(post_json(daemon, "/jobs", "{not json"), 400);
  expect_error_body(
      post_json(daemon, "/jobs",
                "{\"model\":\"resnet18\",\"gpus\":0,\"iterations\":1}"),
      400);
  daemon.stop();
}

TEST(ServiceDaemon, MaxActiveJobsBoundSheds429) {
  DaemonOptions options = manual_options();
  options.max_active_jobs = 2;
  MuriDaemon daemon(std::move(options));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;

  const JobId a = submit(daemon, "resnet18", 1, 400);
  submit(daemon, "resnet18", 1, 100000);
  daemon.step(0);  // both land in the engine

  // The system is at its bound: the next submission is shed with the
  // structured 429 body and a Retry-After hint.
  const auto resp = post_json(
      daemon, "/jobs",
      "{\"model\":\"resnet18\",\"gpus\":1,\"iterations\":100}");
  EXPECT_EQ(resp.status, 429) << resp.body;
  EXPECT_FALSE(resp.header("retry-after").empty());
  const auto json = parse(resp.body);
  EXPECT_EQ(static_cast<int>(json.at("code").number), 429);

  // Capacity frees up as jobs finish.
  ASSERT_EQ(run_to_completion(daemon, a), "finished");
  EXPECT_EQ(post_json(daemon, "/jobs",
                      "{\"model\":\"resnet18\",\"gpus\":1,"
                      "\"iterations\":100}")
                .status,
            202);
  daemon.stop();
}

TEST(ServiceDaemon, HealthzReflectsWatchdogStateAndRecovers) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  daemon.step(0);  // seed the heartbeat

  // Healthy: 200 with a JSON document; ?plain=1 keeps the shell form.
  auto resp = get(daemon, "/healthz");
  ASSERT_EQ(resp.status, 200) << resp.body;
  auto json = parse(resp.body);
  EXPECT_EQ(json.at("status").string, "ok");
  EXPECT_TRUE(json.at("uptime_s").is_number());
  EXPECT_TRUE(json.at("version").is_string());
  resp = get(daemon, "/healthz?plain=1");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "ok\n");

  // A wedged event loop (injected) flips /healthz to degraded on the
  // very next evaluation — health is computed on read, so a stalled
  // loop cannot suppress its own detection.
  daemon.inject_loop_stall_for_test(daemon.options().watchdog_stall_s + 5);
  resp = get(daemon, "/healthz");
  ASSERT_EQ(resp.status, 503) << resp.body;
  json = parse(resp.body);
  EXPECT_EQ(json.at("status").string, "degraded");
  EXPECT_NE(json.at("reason").string.find("stall"), std::string::npos)
      << resp.body;
  resp = get(daemon, "/healthz?plain=1");
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(resp.body, "degraded\n");

  // The transition was counted.
  resp = get(daemon, "/metrics");
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("muri_watchdog_violations_total"),
            std::string::npos);

  // The next loop pass refreshes the heartbeat: recovered.
  daemon.step(0);
  resp = get(daemon, "/healthz");
  EXPECT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(parse(resp.body).at("status").string, "ok");
  daemon.stop();
}

TEST(ServiceDaemon, StatsServesTheDashboardDocument) {
  DaemonOptions options = manual_options();
  options.sample_interval_s = 1.0;  // manual mode: one sample per step
  MuriDaemon daemon(std::move(options));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  const JobId id = submit(daemon, "resnet18", 1, 400);
  ASSERT_EQ(run_to_completion(daemon, id), "finished");

  const auto resp = get(daemon, "/stats");
  ASSERT_EQ(resp.status, 200) << resp.body;
  const auto json = parse(resp.body);
  EXPECT_EQ(json.at("scheduler").string, "Muri-L");
  EXPECT_EQ(json.at("health").at("status").string, "ok");
  EXPECT_TRUE(json.at("queue").at("depth").is_number());
  EXPECT_DOUBLE_EQ(json.at("queue").at("accepted").number, 1);
  EXPECT_TRUE(json.at("jobs").at("rounds").is_number());
  EXPECT_GT(json.at("jobs").at("rounds").number, 0);
  // The observer fed the latency summaries: one wait and one JCT.
  EXPECT_DOUBLE_EQ(json.at("wait_s").at("count").number, 1);
  EXPECT_DOUBLE_EQ(json.at("jct_s").at("count").number, 1);
  EXPECT_GT(json.at("jct_s").at("p99").number, 0);
  // Round phases carry observations (schedule/place measured per round).
  EXPECT_GT(json.at("round_phases").at("schedule").at("count").number, 0);
  EXPECT_GT(json.at("round_phases").at("place").at("count").number, 0);
  // No SLO targets configured; history is on.
  EXPECT_FALSE(json.at("slo").at("enabled").boolean);
  EXPECT_TRUE(json.at("history").at("enabled").boolean);
  EXPECT_GT(json.at("history").at("samples").number, 0);
  daemon.stop();
}

TEST(ServiceDaemon, MetricsHistoryServesSampledSeries) {
  DaemonOptions options = manual_options();
  options.sample_interval_s = 1.0;
  options.history_capacity = 32;
  MuriDaemon daemon(std::move(options));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  const JobId id = submit(daemon, "resnet18", 1, 400);
  run_to_completion(daemon, id);

  const auto resp = get(daemon, "/metrics/history");
  ASSERT_EQ(resp.status, 200) << resp.body;
  const auto json = parse(resp.body);
  EXPECT_GT(json.at("samples").number, 0);
  EXPECT_DOUBLE_EQ(json.at("capacity_per_series").number, 32);
  const obs::JsonValue& series = json.at("series");
  ASSERT_TRUE(series.is_object());
  EXPECT_GT(series.at("queue_depth").at("count").number, 0);
  EXPECT_TRUE(series.at("sim_time").at("points").is_array());
  // The observer's event series landed next to the sampled ones.
  EXPECT_GT(series.at("queue_wait_s").at("count").number, 0);

  // points=0 strips the raw arrays; window= narrows the query.
  const auto lean = get(daemon, "/metrics/history?window=1000&points=0");
  ASSERT_EQ(lean.status, 200);
  EXPECT_EQ(lean.body.find("\"points\""), std::string::npos);
  daemon.stop();
}

TEST(ServiceDaemon, MetricsHistoryIs404WhenSamplingOff) {
  MuriDaemon daemon(manual_options());  // sample_interval_s = 0
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  const auto resp = get(daemon, "/metrics/history");
  EXPECT_EQ(resp.status, 404);
  const auto json = parse(resp.body);
  EXPECT_TRUE(json.at("error").is_string());
  EXPECT_EQ(static_cast<int>(json.at("code").number), 404);
  daemon.stop();
}

TEST(ServiceDaemon, SloTracksInjectedLoopStall) {
  DaemonOptions options = manual_options();
  options.slo.loop_stall_max_s = 0.5;
  MuriDaemon daemon(std::move(options));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  ASSERT_NE(daemon.slo(), nullptr);

  daemon.step(0);  // seed the heartbeat
  daemon.inject_loop_stall_for_test(10.0);
  daemon.step(0);  // the pump observes the 10s stall and evaluates

  EXPECT_GE(daemon.slo()->violations_total(), 1);
  const auto resp = get(daemon, "/stats");
  ASSERT_EQ(resp.status, 200);
  const auto json = parse(resp.body);
  ASSERT_TRUE(json.at("slo").at("enabled").boolean);
  bool found = false;
  for (const obs::JsonValue& t : json.at("slo").at("targets").array) {
    if (t.at("name").string != "loop_stall_s") continue;
    found = true;
    EXPECT_GE(t.at("violations").number, 1) << resp.body;
  }
  EXPECT_TRUE(found) << resp.body;
  daemon.stop();
}

TEST(ServiceDaemon, LivePlaneOffIsBitIdenticalToPlaneOn) {
  // The obs-off contract, extended to the live plane: sampling and SLO
  // tracking change nothing in the decision stream. Two daemons, same
  // submissions and steps, one with the plane fully on — identical
  // decisions JSONL, byte for byte.
  auto drive = [](MuriDaemon& daemon) {
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    submit(daemon, "resnet18", 2, 400, "a");
    submit(daemon, "vgg19", 1, 300, "b");
    for (int i = 0; i < 40; ++i) daemon.step(60);
  };

  MuriDaemon plain(manual_options());
  drive(plain);

  DaemonOptions options = manual_options();
  options.sample_interval_s = 0.25;
  options.history_capacity = 16;
  options.slo.queue_wait_p99_s = 0.001;  // guaranteed violations
  options.slo.loop_stall_max_s = 0.0001;
  MuriDaemon instrumented(std::move(options));
  drive(instrumented);
  EXPECT_GE(instrumented.slo()->violations_total(), 1);

  EXPECT_EQ(plain.decisions_jsonl(), instrumented.decisions_jsonl());
  plain.stop();
  instrumented.stop();
}

TEST(ServiceDaemon, TimelineEndpointServesAttributedSpans) {
  MuriDaemon daemon(manual_options());
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  const JobId a = submit(daemon, "resnet18", 2, 400, "a");
  submit(daemon, "vgg19", 1, 300, "b");
  ASSERT_EQ(run_to_completion(daemon, a), "finished");

  const auto resp = get(daemon, "/jobs/" + std::to_string(a) + "/timeline");
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(resp.header("content-type"), "application/json");
  const auto json = parse(resp.body);
  EXPECT_TRUE(json.at("version").is_string());
  EXPECT_TRUE(json.at("git_sha").is_string());
  const obs::JsonValue& t = json.at("timeline");
  ASSERT_TRUE(t.is_object()) << resp.body;
  EXPECT_TRUE(t.at("finished").boolean);
  EXPECT_TRUE(t.at("valid").boolean) << resp.body;
  // HTTP accept precedes the engine submit; both are reported.
  EXPECT_TRUE(t.at("accept").is_number());
  // The buckets partition [submit, finish]: they must sum to the JCT.
  double sum = 0;
  for (const auto& [name, v] : t.at("buckets").object) sum += v.number;
  EXPECT_NEAR(sum, t.at("jct").number, 1e-6) << resp.body;
  EXPECT_NEAR(t.at("reported_jct").number, t.at("jct").number, 1e-6);
  ASSERT_FALSE(t.at("spans").array.empty());
  // Every span's rounds must exist in the daemon's decision log — the
  // same numbering explain-job reports.
  std::vector<obs::DecisionRecord> records;
  ASSERT_TRUE(obs::parse_decision_log(daemon.decisions_jsonl(), records));
  std::set<std::int64_t> known_rounds;
  for (const auto& r : records) {
    known_rounds.insert(static_cast<std::int64_t>(r.value.at("round").number));
  }
  for (const obs::JsonValue& span : t.at("spans").array) {
    for (const obs::JsonValue& round : span.at("rounds").array) {
      EXPECT_TRUE(known_rounds.count(static_cast<std::int64_t>(round.number)))
          << resp.body;
    }
  }
  // The same spans fold back out of the decision log.
  obs::JobTraceLog fold;
  obs::build_job_traces(records, fold);
  obs::JobTimeline folded;
  ASSERT_TRUE(fold.timeline(a, folded));
  EXPECT_EQ(obs::validate_timeline(folded), "");
  EXPECT_NEAR(folded.total_seconds(), t.at("jct").number, 1e-6);

  // Unknown jobs and bad suffixes 404.
  EXPECT_EQ(get(daemon, "/jobs/999/timeline").status, 404);
  EXPECT_EQ(get(daemon, "/jobs/" + std::to_string(a) + "/nope").status, 404);
  // /stats aggregates the same buckets.
  const auto stats = parse(get(daemon, "/stats").body);
  ASSERT_TRUE(stats.at("wait_buckets").is_object());
  EXPECT_TRUE(stats.at("wait_buckets").at("enabled").boolean);
  EXPECT_GE(stats.at("wait_buckets").at("finished_jobs").number, 1);
  EXPECT_TRUE(stats.at("wait_buckets").at("seconds").at("run").is_number());
  daemon.stop();
}

TEST(ServiceDaemon, JobTraceOffIsBitIdenticalAndTimeline404s) {
  // The obs-off contract for the per-job plane: a daemon with tracing
  // disabled produces byte-identical decisions for the same drive; the
  // only visible difference is the endpoint answering 404.
  auto drive = [](MuriDaemon& daemon) {
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    submit(daemon, "resnet18", 2, 400, "a");
    submit(daemon, "vgg19", 1, 300, "b");
    for (int i = 0; i < 40; ++i) daemon.step(60);
  };
  MuriDaemon traced(manual_options());
  drive(traced);
  DaemonOptions options = manual_options();
  options.jobtrace_enabled = false;
  MuriDaemon bare(std::move(options));
  drive(bare);

  EXPECT_EQ(traced.decisions_jsonl(), bare.decisions_jsonl());
  EXPECT_EQ(get(traced, "/jobs/0/timeline").status, 200);
  const auto off = get(bare, "/jobs/0/timeline");
  EXPECT_EQ(off.status, 404);
  EXPECT_EQ(off.header("content-type"), "application/json");
  const auto stats = parse(get(bare, "/stats").body);
  EXPECT_FALSE(stats.at("wait_buckets").at("enabled").boolean);
  traced.stop();
  bare.stop();
}

// Compares every job's GET /jobs/<id>/timeline with timeline_json of the
// jobtrace fold over the daemon's own decision stream; only the accept
// instant (no record carries it) is copied from the live side. Returns
// the number of timelines compared.
int expect_live_timelines_equal_the_fold(const MuriDaemon& daemon,
                                         JobId max_id) {
  obs::JobTraceLog fold;
  std::vector<obs::DecisionRecord> records;
  std::string error;
  EXPECT_TRUE(obs::parse_decision_log(daemon.decisions_jsonl(), records,
                                      &error))
      << error;
  obs::build_job_traces(records, fold);
  int compared = 0;
  for (JobId id = 0; id < max_id; ++id) {
    const auto resp = get(daemon, "/jobs/" + std::to_string(id) + "/timeline");
    obs::JobTimeline folded;
    const bool in_fold = fold.timeline(id, folded);
    if (resp.status == 404) {
      EXPECT_FALSE(in_fold) << "job " << id << " folds but is not live";
      continue;
    }
    EXPECT_EQ(resp.status, 200) << resp.body;
    EXPECT_TRUE(in_fold) << "job " << id << " is live but does not fold";
    if (resp.status != 200 || !in_fold) continue;
    const std::string key = ",\"timeline\":";
    const auto at = resp.body.find(key);
    EXPECT_NE(at, std::string::npos) << resp.body;
    if (at == std::string::npos) continue;
    const std::string live =
        resp.body.substr(at + key.size(),
                         resp.body.size() - (at + key.size()) - 2);
    const obs::JsonValue accept = parse(live).at("accept");
    folded.accept = accept.is_number() ? accept.number : -1;
    EXPECT_EQ(live, obs::timeline_json(folded)) << "job " << id;
    ++compared;
  }
  return compared;
}

TEST(ServiceDaemon, LiveTimelinesEqualTheFoldOfTheLog) {
  const std::string wal = temp_path("timelines_live.wal");
  const std::string image = temp_path("timelines_image.wal");
  std::remove(wal.c_str());
  const char* models[] = {"resnet18", "vgg19", "bert", "gpt2",
                          "shufflenet", "dqn"};
  const int gpus[] = {1, 2, 4};
  JobId next = 0;
  {
    DaemonOptions options = manual_options();
    options.wal_path = wal;
    options.fsync = recovery::DurableSinkOptions::Fsync::kEveryRecord;
    MuriDaemon daemon(std::move(options));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    // A contended mix of 1-, 2- and 4-GPU jobs arriving over time, so
    // rounds wait, group, preempt and finish jobs.
    for (int i = 0; i < 12; ++i) {
      next = submit(daemon, models[i % 6], gpus[i % 3], 2000 + 1500 * i) + 1;
      daemon.step(i % 4 == 0 ? 120 : 0);
    }
    const JobId cancelled = next - 2;
    for (int i = 0; i < 20; ++i) daemon.step(60);
    EXPECT_EQ(del(daemon, "/jobs/" + std::to_string(cancelled)).status, 200);
    for (int i = 0; i < 90; ++i) daemon.step(60);
    EXPECT_EQ(expect_live_timelines_equal_the_fold(daemon, next), 12);
    const auto t = parse(
        get(daemon, "/jobs/" + std::to_string(cancelled) + "/timeline").body);
    EXPECT_TRUE(t.at("timeline").at("cancelled").boolean);
    spit(image, slurp(wal));  // crash image: no daemon_stop
    daemon.stop();
  }

  // The resumed daemon's log starts at daemon_start: restored jobs
  // re-open there, and one new job joins them.
  DaemonOptions options = manual_options();
  options.wal_path = image;
  options.resume = true;
  MuriDaemon daemon(std::move(options));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  next = submit(daemon, "vgg16", 2, 3000) + 1;
  for (int i = 0; i < 30; ++i) daemon.step(60);
  EXPECT_EQ(expect_live_timelines_equal_the_fold(daemon, next), 6);
  daemon.stop();
}

TEST(ServiceDaemon, EveryJsonEndpointDeclaresItsContentType) {
  DaemonOptions options = manual_options();
  options.sample_interval_s = 0.25;  // so /metrics/history answers 200
  MuriDaemon daemon(std::move(options));
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  const JobId id = submit(daemon, "resnet18", 1, 200, "a");
  daemon.step(0);

  const auto expect_json = [&](const ClientResponse& resp,
                               const std::string& what) {
    EXPECT_EQ(resp.header("content-type"), "application/json")
        << what << ": " << resp.body;
    obs::JsonValue v;
    std::string parse_error;
    EXPECT_TRUE(obs::parse_json(resp.body, v, &parse_error))
        << what << ": " << parse_error;
  };
  expect_json(get(daemon, "/healthz"), "/healthz");
  expect_json(get(daemon, "/stats"), "/stats");
  expect_json(get(daemon, "/metrics.json"), "/metrics.json");
  expect_json(get(daemon, "/metrics/history"), "/metrics/history");
  expect_json(get(daemon, "/jobs"), "/jobs");
  expect_json(get(daemon, "/jobs/" + std::to_string(id)), "/jobs/<id>");
  expect_json(get(daemon, "/jobs/" + std::to_string(id) + "?explain=1"),
              "/jobs/<id>?explain=1");
  expect_json(get(daemon, "/jobs/" + std::to_string(id) + "/timeline"),
              "timeline");
  expect_json(post_json(daemon, "/jobs", "{\"model\":\"resnet18\","
                                         "\"gpus\":1,\"iterations\":100}"),
              "POST /jobs");
  // Error bodies are JSON too, whatever the status.
  expect_json(get(daemon, "/jobs/12345"), "404 unknown job");
  expect_json(get(daemon, "/jobs/xyz"), "404 bad id");
  expect_json(post_json(daemon, "/jobs", "{}"), "400 malformed");
  // Non-JSON endpoints keep their own types.
  EXPECT_EQ(get(daemon, "/decisions").header("content-type"),
            "application/x-ndjson");
  const std::string metrics_type = get(daemon, "/metrics").header(
      "content-type");
  EXPECT_NE(metrics_type.find("text/plain"), std::string::npos);
  daemon.stop();
}

}  // namespace
}  // namespace muri::service
