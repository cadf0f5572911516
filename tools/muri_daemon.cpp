// muri-daemon — the Muri scheduler as a long-running service
// (src/service/daemon.h; DESIGN.md "Service architecture").
//
//   muri-daemon --port=8080 --wal=daemon.wal
//   muri-daemon --port=8080 --wal=daemon.wal --resume   # after a crash
//
// The job API rides the metrics listener:
//
//   job='{"model":"resnet18","gpus":2,"iterations":1000}'
//   curl -X POST -d "$job" http://127.0.0.1:8080/jobs
//   curl http://127.0.0.1:8080/jobs/0
//   curl -X DELETE http://127.0.0.1:8080/jobs/0
//   curl http://127.0.0.1:8080/jobs http://127.0.0.1:8080/metrics
//
// SIGTERM/SIGINT triggers a graceful shutdown: stop admitting (503),
// drain the admission queue into durable job_submit records, checkpoint
// progress, fsync the WAL, exit 0. --compression speeds the simulated
// clock for trace replays (see muri-loadgen).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/build_info.h"
#include "service/daemon.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void on_signal(int) { g_shutdown = 1; }

void usage(std::FILE* out) {
  std::fputs(
      "usage: muri-daemon [options]\n"
      "  --port=N              listen port (default 0 = ephemeral)\n"
      "  --wal=FILE            durable decision WAL (default: none)\n"
      "  --resume              recover jobs and clock from the WAL\n"
      "  --scheduler=NAME      muri-l|muri-s|fifo|srtf|srsf (default muri-l)\n"
      "  --machines=N          cluster machines (default 8)\n"
      "  --gpus-per-machine=N  GPUs per machine (default 8)\n"
      "  --round-interval=S    fallback round interval, sim seconds "
      "(default 360)\n"
      "  --debounce-ms=N       arrival-batching window, wall ms (default "
      "50)\n"
      "  --compression=X       sim seconds per wall second (default 1)\n"
      "  --queue-capacity=N    admission queue bound (default 64)\n"
      "  --max-active-jobs=N   429 past N jobs in the system (engine +\n"
      "                        queue; default 0 = unbounded)\n"
      "  --fsync=MODE          none|interval|every (default interval)\n"
      "  --crash-env           honor MURI_CRASH_AT/_TORN (CI crash legs)\n"
      "  --no-jobtrace         disable per-job span timelines "
      "(/jobs/<id>/timeline 404s)\n"
      "  --version             print version and exit\n"
      "live SLO & health plane (DESIGN.md):\n"
      "  --sample-interval=S   wall seconds between /metrics/history "
      "samples\n"
      "                        (default 0 = sampling off, history 404s)\n"
      "  --history-capacity=N  ring-buffer points per series (default "
      "600)\n"
      "  --slo-window=S        rolling SLO window, wall seconds (default "
      "60)\n"
      "  --slo-wait-p99=S      p99 queue-wait target, sim seconds\n"
      "  --slo-round-p99=S     p99 round-latency target, wall seconds\n"
      "  --slo-fsync-max=S     max WAL fsync latency target, wall seconds\n"
      "  --slo-stall-max=S     max event-loop stall target, wall seconds\n"
      "  --watchdog-stall=S    /healthz degrades past this heartbeat age "
      "(default 5)\n"
      "  --watchdog-round-factor=X  ... or when no round ran for X x\n"
      "                        round-interval with jobs active (default "
      "4)\n",
      out);
}

bool parse_int(const char* s, long long& out) {
  char* end = nullptr;
  out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  muri::service::DaemonOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long long n = 0;
    double d = 0;
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--version") {
      std::printf("muri-daemon %s (%s)\n", muri::build_version(),
                  muri::build_git_sha());
      return 0;
    } else if (arg == "--no-jobtrace") {
      options.jobtrace_enabled = false;
    } else if (arg.rfind("--port=", 0) == 0 &&
               parse_int(arg.c_str() + 7, n)) {
      options.http_port = static_cast<int>(n);
    } else if (arg.rfind("--wal=", 0) == 0) {
      options.wal_path = arg.substr(6);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg.rfind("--scheduler=", 0) == 0) {
      options.scheduler = arg.substr(12);
    } else if (arg.rfind("--machines=", 0) == 0 &&
               parse_int(arg.c_str() + 11, n)) {
      options.cluster.num_machines = static_cast<int>(n);
    } else if (arg.rfind("--gpus-per-machine=", 0) == 0 &&
               parse_int(arg.c_str() + 19, n)) {
      options.cluster.gpus_per_machine = static_cast<int>(n);
    } else if (arg.rfind("--round-interval=", 0) == 0 &&
               parse_double(arg.c_str() + 17, d)) {
      options.round_interval_s = d;
    } else if (arg.rfind("--debounce-ms=", 0) == 0 &&
               parse_int(arg.c_str() + 14, n)) {
      options.debounce_ms = static_cast<int>(n);
    } else if (arg.rfind("--compression=", 0) == 0 &&
               parse_double(arg.c_str() + 14, d) && d > 0) {
      options.compression = d;
    } else if (arg.rfind("--queue-capacity=", 0) == 0 &&
               parse_int(arg.c_str() + 17, n) && n > 0) {
      options.queue_capacity = static_cast<std::size_t>(n);
    } else if (arg.rfind("--max-active-jobs=", 0) == 0 &&
               parse_int(arg.c_str() + 18, n) && n >= 0) {
      options.max_active_jobs = static_cast<int>(n);
    } else if (arg.rfind("--fsync=", 0) == 0) {
      const std::string mode = arg.substr(8);
      using Fsync = muri::recovery::DurableSinkOptions::Fsync;
      if (mode == "none") {
        options.fsync = Fsync::kNone;
      } else if (mode == "interval") {
        options.fsync = Fsync::kInterval;
      } else if (mode == "every") {
        options.fsync = Fsync::kEveryRecord;
      } else {
        std::fprintf(stderr, "muri-daemon: unknown fsync mode '%s'\n",
                     mode.c_str());
        return 1;
      }
    } else if (arg == "--crash-env") {
      options.honor_crash_env = true;
    } else if (arg.rfind("--sample-interval=", 0) == 0 &&
               parse_double(arg.c_str() + 18, d) && d >= 0) {
      options.sample_interval_s = d;
    } else if (arg.rfind("--history-capacity=", 0) == 0 &&
               parse_int(arg.c_str() + 19, n) && n > 0) {
      options.history_capacity = static_cast<std::size_t>(n);
    } else if (arg.rfind("--slo-window=", 0) == 0 &&
               parse_double(arg.c_str() + 13, d) && d > 0) {
      options.slo.window_s = d;
    } else if (arg.rfind("--slo-wait-p99=", 0) == 0 &&
               parse_double(arg.c_str() + 15, d)) {
      options.slo.queue_wait_p99_s = d;
    } else if (arg.rfind("--slo-round-p99=", 0) == 0 &&
               parse_double(arg.c_str() + 16, d)) {
      options.slo.round_latency_p99_s = d;
    } else if (arg.rfind("--slo-fsync-max=", 0) == 0 &&
               parse_double(arg.c_str() + 16, d)) {
      options.slo.fsync_max_s = d;
    } else if (arg.rfind("--slo-stall-max=", 0) == 0 &&
               parse_double(arg.c_str() + 16, d)) {
      options.slo.loop_stall_max_s = d;
    } else if (arg.rfind("--watchdog-stall=", 0) == 0 &&
               parse_double(arg.c_str() + 17, d) && d > 0) {
      options.watchdog_stall_s = d;
    } else if (arg.rfind("--watchdog-round-factor=", 0) == 0 &&
               parse_double(arg.c_str() + 24, d) && d > 0) {
      options.watchdog_round_factor = d;
    } else {
      std::fprintf(stderr, "muri-daemon: unknown flag '%s'\n", arg.c_str());
      usage(stderr);
      return 1;
    }
  }

  muri::service::MuriDaemon daemon(std::move(options));
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "muri-daemon: %s\n", error.c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%d\n", daemon.port());
  std::fflush(stdout);

  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("shutting down\n");
  std::fflush(stdout);
  daemon.stop(g_shutdown != 0 ? "signal" : "stop");
  return 0;
}
