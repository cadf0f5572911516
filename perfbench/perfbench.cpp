// muri_perfbench — the repository benchmark (perfbench/README.md).
//
// Usage: muri_perfbench --workload <sim_backlog|sim_faults|daemon_replay>
//                       --seed <n> --seconds <s> --trace <0|1>
//                       --work-dir <dir>
//
// Repeats one workload back to back for --seconds (at least kMinReps
// repetitions of several trace draws each), checks every repetition's
// outputs, and prints the run's metrics. The last stdout line is the
// result JSON.
//
// Host noise on small shared machines comes in slow phases several
// seconds long, so each wall-time metric is a median over repetitions
// inside the run, and every repetition must reproduce the first one's
// outputs exactly. The host's speed also drifts from minute to minute, so
// the throughput is scaled by a reference kernel timed around every draw
// (kRefNominalS). With --trace 1 the benchmark records spans around its
// calls into each layer (never inside the program) and reports per-layer
// metrics instead; traced and untraced repetitions alternate so the
// tracing overhead is measured under the same host conditions.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "job/trace.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "recovery/durable.h"
#include "scheduler/muri.h"
#include "service/daemon.h"
#include "service/http_client.h"
#include "sim/simulator.h"
#include "stats.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr int kMinReps = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- spans

// One span per call into a layer, recorded by the benchmark around the
// call. Spans of one repetition share `run`; `parent` is the enclosing
// span's id, -1 at the root.
struct Span {
  int run = 0;
  int id = 0;
  int parent = -1;
  std::string name;
  std::string layer;
  double start_s = 0;
  double end_s = 0;
};

class SpanLog {
 public:
  void begin_run() { ++run_; }

  int open(std::string name, std::string layer) {
    Span s;
    s.run = run_;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.start_s = seconds_since(origin_);
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
    if (stack_.empty() || stack_.back() != id) {
      throw std::logic_error("span closed out of order");
    }
    stack_.pop_back();
  }

  // Self time (duration minus the time covered by direct children) per
  // layer, summed over every span.
  std::map<std::string, double> self_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      out[s.layer] +=
          (s.end_s - s.start_s) - child[static_cast<std::size_t>(s.id)];
    }
    return out;
  }

  bool write_json(const std::string& path, const std::string& facts) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"facts\":" << facts << ",\"spans\":[";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"run\":%d,\"id\":%d,\"parent\":%d,\"name\":\"%s\","
                    "\"layer\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}",
                    i == 0 ? "" : ",", s.run, s.id, s.parent, s.name.c_str(),
                    s.layer.c_str(), s.start_s, s.end_s);
      out << buf;
    }
    out << "\n]}\n";
    return out.good();
  }

 private:
  Clock::time_point origin_ = Clock::now();
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Opens a span for its lifetime; a no-op without a log.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, const char* layer) : log_(log) {
    if (log_ != nullptr) id_ = log_->open(name, layer);
  }
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_ = -1;
};

// ------------------------------------------------------------ reporting

struct Ops {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // Counts one operation; a false `ok` is a failure, reported on stderr.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    }
  }
};

// One repetition's measurements: every metric the run may report, keyed
// by name, plus the raw samples and the outputs that must repeat.
struct Rep {
  std::map<std::string, double> values;
  // A round as its caller sees it: Scheduler::schedule in the simulator,
  // a MuriDaemon::step that ran a round in the daemon.
  std::vector<double> rounds_ms;
  // The scheduler's own share of each round: the same schedule() call in
  // the simulator, the daemon's schedule phase in the daemon.
  std::vector<double> sched_ms;
  std::vector<double> submit_ms;
  std::vector<double> poll_ms;
  std::vector<double> setup_s;  // once per draw
  std::vector<double> ref_s;    // the reference kernel, before and after
                                // each draw
  std::vector<double> loop_s;   // the loopback reference, likewise
  // Per draw, in draw order: the timed wall time, the jobs it finished
  // and (daemon_replay) its recovery time.
  std::vector<double> draw_wall_s;
  std::vector<double> draw_norm_wall_s;  // scaled by the draw's own kernels
  std::vector<double> draw_jobs;
  std::vector<double> draw_recover_s;
  std::string outputs;  // compared byte for byte across repetitions
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  // Whether the metric is in the result line (kEndToEnd, kPerLayer); the
  // others are printed for reference only.
  bool in_result = true;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Peak resident set size of the process so far, in MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string filesystem_of(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// CPUs this process may run on, as `nproc` counts them: the affinity
// mask, which honours cgroup cpusets.
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

// Threads a default MuriScheduler round may use. The scheduler keeps its
// pool private, so this restates its rule (MuriScheduler::pool):
// MuriOptions::num_threads is 0, which resolves to hardware_concurrency
// (not the affinity mask), and the pool runs that many minus one workers
// beside the calling thread.
int pool_threads() {
  const int hc = static_cast<int>(std::thread::hardware_concurrency());
  return hc > 0 ? hc : 1;
}

// ------------------------------------------------------ host reference

// A fixed single-threaded computation of the benchmark's own, independent
// of the program under test: a dependent walk around a 1 MiB random cycle
// (pointer chasing, like the simulator's node-based tables) and sorts of
// 64 Ki doubles. Its wall time tracks the host's speed at the moment it
// runs. Each draw times it between its set-up and its timed work, and
// run_rep times it again right after the draw.
//
// The kernel allocates nothing once its buffers exist, and run() builds
// them before the first draw. Allocating and freeing inside the draws
// shifted the heap under the program: sim_faults' peak RSS split into two
// levels, 17 and 24 MiB, by seed.
//
// The *_norm metrics scale wall times to a host on which the kernel takes
// kRefNominalS (about its time on a 4-vCPU KVM guest of an Intel Xeon
// host): a time t measured beside kernel time ref_s reads
// t * kRefNominalS / ref_s. jobs_per_s_norm scales each draw by the mean
// of the two kernels around it, so it follows slow phases within a run as
// well as drift between runs: on sim_backlog, ten-second phases in which
// both the draws and the kernels ran slower moved the throughput scaled
// by the run's median kernel by 0.10 (interquartile range over median,
// five seeds), and the per-draw scaled one by 0.04. On daemon_replay the
// request share of a draw is scaled by LoopbackReference instead.
// recover_s_norm uses the run's median kernel time. A change to the
// program under test moves the scaled figures as it moves the raw ones.
constexpr double kRefNominalS = 0.05;

double reference_kernel_s() {
  constexpr std::size_t kRing = std::size_t{1} << 18;
  constexpr std::size_t kKeys = std::size_t{1} << 16;
  struct Buffers {
    std::vector<std::uint32_t> ring = std::vector<std::uint32_t>(kRing);
    std::vector<double> keys = std::vector<double>(kKeys);
    std::vector<double> work = std::vector<double>(kKeys);
    Buffers() {
      std::uint64_t x = 0x9e3779b97f4a7c15ull;  // splitmix64
      auto next = [&x]() {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
      };
      // Sattolo's shuffle: one cycle through every slot.
      for (std::size_t i = 0; i < kRing; ++i) {
        ring[i] = static_cast<std::uint32_t>(i);
      }
      for (std::size_t i = kRing - 1; i > 0; --i) {
        std::swap(ring[i], ring[next() % i]);
      }
      for (double& k : keys) k = static_cast<double>(next() >> 11);
    }
  };
  static Buffers b;

  const Clock::time_point t0 = Clock::now();
  std::uint32_t at = 0;
  for (int i = 0; i < (1 << 21); ++i) at = b.ring[at];
  double mid = 0;
  for (int pass = 0; pass < 4; ++pass) {
    std::copy(b.keys.begin(), b.keys.end(), b.work.begin());
    std::sort(b.work.begin(), b.work.end());
    mid += b.work[kKeys / 2];
  }
  volatile double sink = mid + at;
  (void)sink;
  return seconds_since(t0);
}

// A second reference of the benchmark's own, for the request path, which
// the CPU kernel does not see: a thread answers each connection to a
// 127.0.0.1 socket with 16 KiB (about one GET /jobs listing of a
// daemon_replay draw), and a sample makes 100 such exchanges, each on a
// new connection as service::http_request makes them. Its time is mostly
// how long a blocked thread takes to be woken over loopback. In one
// 35 s daemon_replay run every repetition replayed at half the usual
// throughput while the CPU kernel read its usual time; the request path is
// where the replay waits on another thread.
constexpr double kLoopbackNominalS = 0.006;

class LoopbackReference {
 public:
  LoopbackReference() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = loopback(0);
    socklen_t len = sizeof addr;
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 16) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
      if (listen_fd_ >= 0) ::close(listen_fd_);
      throw std::runtime_error("loopback reference: cannot listen");
    }
    port_ = ntohs(addr.sin_port);
    server_ = std::thread([this] { serve(); });
  }
  ~LoopbackReference() {
    try {
      exchange('Q');
    } catch (const std::exception&) {
      ::shutdown(listen_fd_, SHUT_RDWR);  // fails the server's accept
    }
    server_.join();
    ::close(listen_fd_);
  }
  LoopbackReference(const LoopbackReference&) = delete;
  LoopbackReference& operator=(const LoopbackReference&) = delete;

  double sample_s() {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 100; ++i) exchange('G');
    return seconds_since(t0);
  }

 private:
  static sockaddr_in loopback(int port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    return addr;
  }

  // Answers connections until one sends 'Q'.
  void serve() {
    const std::string body(16384, 'x');
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0 && errno == EINTR) continue;
      if (fd < 0) return;
      char tag = 0;
      const bool quit = ::recv(fd, &tag, 1, 0) != 1 || tag == 'Q';
      for (std::size_t off = 0; !quit && off < body.size();) {
        const ssize_t n = ::send(fd, body.data() + off, body.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
      ::close(fd);
      if (quit) return;
    }
  }

  // One connection: sends `tag`, reads the answer to its end.
  void exchange(char tag) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const sockaddr_in addr = loopback(port_);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof addr) != 0 ||
        ::send(fd, &tag, 1, MSG_NOSIGNAL) != 1) {
      if (fd >= 0) ::close(fd);
      throw std::runtime_error("loopback reference: exchange failed");
    }
    char buf[8192];
    while (::recv(fd, buf, sizeof buf, 0) > 0) {
    }
    ::close(fd);
  }

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread server_;
};

// ---------------------------------------------------------------- WALs

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Bytes and FNV-1a hash of a WAL, for the outputs that must repeat.
std::string wal_digest(const std::string& path) {
  const std::string wal = slurp(path);
  char buf[64];
  std::snprintf(buf, sizeof buf, "wal_bytes=%zu wal_fnv=%016" PRIx64,
                wal.size(), fnv1a(wal));
  return buf;
}

// --------------------------------------------------------------- traces

// Jobs of the testbed trace the daemon replays: its first 100 arrivals.
// The full 400-job trace takes about 30 s per draw (replay plus recovery
// over a 105 MB WAL), too long for several repetitions a run.
constexpr std::size_t kDaemonJobs = 100;

// Independent trace draws per repetition. One draw of a trace leaves the
// run's numbers at the mercy of that draw: the median round of trace 1'
// moved by about 15% from one model assignment to the next. A repetition
// therefore runs several draws back to back and pools them, which cuts
// that spread by the square root of the draw count.
int draws_per_rep(const std::string& workload) {
  if (workload == "sim_backlog") return 3;
  if (workload == "sim_faults") return 4;
  return 3;
}

// Draw k of seed s; seed 0 starts with draw 0, the paper's trace.
std::uint64_t draw_seed(std::uint64_t seed, int k, int draws) {
  return seed * static_cast<std::uint64_t>(draws) +
         static_cast<std::uint64_t>(k);
}

// The paper's traces (job/trace.h). The paper assigns each trace job one
// of the eight Table-3 models at random, because the Philly trace does
// not record models; a non-zero draw re-draws that assignment
// (restrict_models keeps each job's GPU count and solo duration). Draw 0
// keeps the generator's own assignment, the paper's trace exactly.
muri::Trace make_trace(const std::string& workload, std::uint64_t draw) {
  muri::Trace trace;
  if (workload == "sim_backlog") {
    // Trace 1 with every submit time zeroed: the paper's 1' construction.
    trace = muri::zero_arrivals(muri::standard_trace(1));
  } else if (workload == "sim_faults") {
    // Trace 3: lightly loaded, a few very long jobs.
    trace = muri::standard_trace(3);
  } else {
    trace = muri::testbed_trace();
    trace.jobs.resize(kDaemonJobs);
  }
  if (draw == 0) return trace;
  return muri::restrict_models(
      std::move(trace),
      std::vector<muri::ModelKind>(muri::kAllModels.begin(),
                                   muri::kAllModels.end()),
      draw);
}

// ------------------------------------------------------- sim workloads

// Decorates the scheduler under test: times every schedule() call as the
// simulator sees it and, when tracing, records it as a span.
class TimedScheduler final : public muri::Scheduler {
 public:
  TimedScheduler(muri::Scheduler& inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  bool needs_durations() const override { return inner_.needs_durations(); }

  std::vector<muri::PlannedGroup> schedule(
      const std::vector<muri::JobView>& queue,
      const muri::SchedulerContext& ctx) override {
    Scope span(spans_, "schedule", "scheduler");
    const Clock::time_point t0 = Clock::now();
    std::vector<muri::PlannedGroup> plan = inner_.schedule(queue, ctx);
    round_s_.push_back(seconds_since(t0));
    set_last_deferred(inner_.last_deferred());
    return plan;
  }

  const std::vector<double>& round_seconds() const noexcept {
    return round_s_;
  }

 private:
  muri::Scheduler& inner_;
  SpanLog* spans_;
  std::vector<double> round_s_;
};

muri::SimOptions sim_options(const std::string& workload,
                             std::uint64_t draw) {
  muri::SimOptions opt;
  opt.cluster.num_machines = 8;
  opt.cluster.gpus_per_machine = 8;
  opt.durations_known = false;  // Muri-L
  if (workload == "sim_faults") {
    opt.mtbf_hours = 24;
    opt.fault_seed += draw;
    opt.machine_faults.machine_mtbf_hours = 48;
    opt.machine_faults.machine_mttr_hours = 0.5;
    opt.machine_faults.straggler_rate_per_hour = 0.1;
    opt.machine_faults.seed += draw;
  }
  return opt;
}

// Runs one draw of a simulator workload and adds its measurements to
// `rep`: additive quantities are summed over the repetition's draws, and
// run_rep forms the ratios. With a `log`, the draw records its decisions
// into it: the scheduler's and the simulator's.
void run_sim_draw(const std::string& workload, std::uint64_t draw,
                  SpanLog* spans, Ops& ops, Rep& rep,
                  muri::obs::DecisionLog* log = nullptr) {
  auto& v = rep.values;
  const Clock::time_point t_setup = Clock::now();
  muri::Trace trace;
  {
    Scope span(spans, "generate_trace", "job");
    trace = make_trace(workload, draw);
  }
  v["job.trace_gen_s"] += seconds_since(t_setup);
  muri::MuriScheduler muri_l;
  TimedScheduler timed(muri_l, spans);
  muri::SimOptions options = sim_options(workload, draw);
  // The decorator does not forward a log to the scheduler it wraps.
  muri_l.set_decision_log(log);
  options.decisions = log;
  rep.setup_s.push_back(seconds_since(t_setup));
  rep.ref_s.push_back(reference_kernel_s());

  const Clock::time_point t_run = Clock::now();
  muri::SimResult result;
  {
    Scope span(spans, "run_simulation", "sim");
    result = muri::run_simulation(trace, timed, options);
  }
  const double wall_s = seconds_since(t_run);

  const int jobs = static_cast<int>(trace.jobs.size());
  ops.check(result.finished_jobs == jobs && result.unfinished_jobs == 0,
            workload + ": " + std::to_string(result.finished_jobs) + " of " +
                std::to_string(jobs) + " jobs finished");
  const auto rounds = static_cast<std::int64_t>(timed.round_seconds().size());
  ops.check(rounds == result.scheduler_invocations,
            workload + ": wrapper saw " + std::to_string(rounds) +
                " rounds, SimResult::scheduler_invocations is " +
                std::to_string(result.scheduler_invocations));

  double busy_s = 0;
  for (const double round_s : timed.round_seconds()) {
    rep.rounds_ms.push_back(round_s * 1e3);
    rep.sched_ms.push_back(round_s * 1e3);
    busy_s += round_s;
  }
  const muri::GroupingStats& gs = muri_l.cumulative_stats();
  v["wall_s"] += wall_s;
  v["jobs"] += result.finished_jobs;
  v["jct_sum_s"] += result.avg_jct * result.finished_jobs;
  v["sched.busy_s"] += busy_s;
  v["driver.self_s"] += wall_s - busy_s;
  v["sched.rounds"] += static_cast<double>(rounds);
  v["sched.sort_s"] += gs.priority_sort_seconds;
  v["sched.graph_s"] += gs.graph_build_seconds;
  v["sched.match_s"] += gs.matching_seconds;
  v["sched.admit_s"] += gs.admission_seconds;
  v["matching.blossom_calls"] += static_cast<double>(gs.matchings_run);
  v["matching.fallbacks"] += static_cast<double>(gs.matching_fallbacks);
  v["interleave.gamma_evals"] += static_cast<double>(gs.cache_misses);
  v["gamma_cache_hits"] += static_cast<double>(gs.cache_hits);
  v["sim.restarts"] += static_cast<double>(result.restarts);
  v["sim.faults"] += static_cast<double>(result.faults);
  v["sim.evictions"] += static_cast<double>(result.evictions);
  v["sim.machine_failures"] += static_cast<double>(result.machine_failures);

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "[draw %" PRIu64 " finished=%d avg_jct=%a p99_jct=%a "
                "makespan=%a rounds=%" PRId64 " restarts=%" PRId64
                " faults=%" PRId64 "]",
                draw, result.finished_jobs, result.avg_jct, result.p99_jct,
                result.makespan, result.scheduler_invocations,
                result.restarts, result.faults);
  rep.outputs += buf;
}

// The WAL of a simulator workload's first draw, written once per run as a
// crash-safe simulation writes it (recovery/resume.h): the decision log
// goes through a DurableSink at the default fsync policy. recover_wal then
// reads it back, the state a restarted process would serve from, and the
// recovered state is checked against the run. None of this is part of
// jobs_per_s: the timed draws run without a log. It runs after them, as
// the log and the recovery take several times a draw's memory, and the
// heap they leave behind would set the repetitions' peak RSS.
//
// Recovery is timed once per run, not per repetition: sim_backlog's WAL
// is about 60 MB, and recovering it took 1.7-2.7 s in back-to-back calls
// of one process, so no median over a run's few repetitions held still.
struct SimWal {
  muri::recovery::DurableSink::IoStats io;
  double jobs = 0;
  double recover_s = 0;
  std::string digest;
};

SimWal write_sim_wal(const std::string& workload, std::uint64_t draw,
                     const std::string& work_dir, Ops& ops, Rep& durable) {
  SimWal wal;
  const std::string path =
      work_dir + "/" + workload + "-" + std::to_string(::getpid()) + ".wal";
  fs::remove(path);
  {
    muri::recovery::DurableSink sink(path);
    muri::obs::DecisionLog log;
    log.set_sink(&sink);
    run_sim_draw(workload, draw, nullptr, ops, durable, &log);
    log.set_sink(nullptr);
    sink.close();
    ops.check(sink.ok(), workload + ": WAL write: " + sink.error());
    wal.io = sink.io_stats();
  }
  wal.jobs = durable.values.at("jobs");
  wal.digest = wal_digest(path);

  muri::recovery::RecoverResult recovered;
  std::string error;
  bool ok = false;
  const Clock::time_point t0 = Clock::now();
  ok = muri::recovery::recover_wal(path, recovered, &error);
  wal.recover_s = seconds_since(t0);
  fs::remove(path);
  const muri::recovery::ReplayState& st = recovered.state;
  ops.check(ok && !recovered.torn,
            "recover_wal: " + error + recovered.torn_reason);
  ops.check(st.run_complete &&
                st.finished_jobs == static_cast<std::int64_t>(wal.jobs) &&
                st.scheduler_invocations ==
                    static_cast<std::int64_t>(
                        durable.values.at("sched.rounds")) &&
                st.avg_jct() * wal.jobs == durable.values.at("jct_sum_s"),
            "the recovered state does not match the run: " +
                std::to_string(st.finished_jobs) + " finished, " +
                std::to_string(st.scheduler_invocations) + " rounds");
  return wal;
}

// Copies the run's WAL figures into a repetition.
void add_sim_wal(const SimWal& wal, Rep& rep) {
  auto& v = rep.values;
  v["wal.bytes"] = static_cast<double>(wal.io.appended_bytes);
  v["wal.fsyncs"] = static_cast<double>(wal.io.fsyncs);
  v["wal.io_s"] = wal.io.append_seconds + wal.io.fsync_seconds;
  v["wal_bytes_per_job"] = v["wal.bytes"] / wal.jobs;
  v["recovery.recover_s"] = wal.recover_s;
}

// ---------------------------------------------------- daemon workload

// Simulated seconds per clock step once every job is submitted.
constexpr double kDrainStepS = 60;

struct Http {
  int port = 0;
  SpanLog* spans = nullptr;
  Ops* ops = nullptr;

  // One timed request; returns the round trip in ms, or a negative value
  // when the exchange itself failed.
  double request(const char* method, const char* path,
                 const std::string& body, muri::service::ClientResponse& out) {
    Scope span(spans, method[0] == 'P' ? "POST /jobs" : "GET /jobs", "http");
    std::string error;
    const Clock::time_point t0 = Clock::now();
    const bool ok =
        muri::service::http_request(port, method, path, body, out, &error);
    const double ms = seconds_since(t0) * 1e3;
    if (!ok) {
      ops->check(false, std::string(method) + " " + path + ": " + error);
      return -1;
    }
    return ms;
  }
};

std::string submit_body(const muri::Job& job, std::size_t index) {
  return "{\"model\":\"" + std::string(muri::to_string(job.model)) +
         "\",\"gpus\":" + std::to_string(job.num_gpus) +
         ",\"iterations\":" + std::to_string(job.iterations) +
         ",\"name\":\"job" + std::to_string(index) + "\"}";
}

std::size_t count_occurrences(const std::string& hay, const char* needle) {
  std::size_t n = 0;
  const std::size_t len = std::strlen(needle);
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + len)) {
    ++n;
  }
  return n;
}

double registry_phase_sum(muri::obs::MetricsRegistry& reg,
                          const char* phase) {
  static const std::vector<double> kBounds{1e-5, 1e-4, 1e-3, 1e-2,
                                           0.1,  1.0,  10.0};
  return reg
      .histogram("muri_daemon_round_phase_seconds",
                 "Wall seconds per engine round phase", kBounds,
                 {{"phase", phase}})
      .sum();
}

double registry_gauge(muri::obs::MetricsRegistry& reg, const char* name) {
  return reg.gauge(name, "").value();
}

std::int64_t rounds_summary_count(muri::obs::MetricsRegistry& reg) {
  return reg
      .summary("muri_daemon_round_wall_seconds",
               "End-to-end wall time of one daemon scheduling round")
      .count();
}

// Runs one draw of daemon_replay and adds its measurements to `rep`.
void run_daemon_draw(std::uint64_t draw, const std::string& work_dir,
                     SpanLog* spans, Ops& ops, Rep& rep) {
  auto& v = rep.values;
  const std::string wal_path =
      work_dir + "/daemon_replay-" + std::to_string(::getpid()) + ".wal";
  fs::remove(wal_path);

  const Clock::time_point t_setup = Clock::now();
  muri::Trace trace;
  {
    Scope span(spans, "generate_trace", "job");
    trace = make_trace("daemon_replay", draw);
  }
  v["job.trace_gen_s"] += seconds_since(t_setup);
  muri::service::DaemonOptions options;
  options.manual_time = true;
  options.cluster.num_machines = 8;
  options.cluster.gpus_per_machine = 8;
  options.scheduler = "muri-l";
  options.wal_path = wal_path;
  auto daemon = std::make_unique<muri::service::MuriDaemon>(options);
  std::string error;
  bool started = false;
  {
    Scope span(spans, "daemon_start", "service");
    started = daemon->start(&error);
  }
  rep.setup_s.push_back(seconds_since(t_setup));
  rep.ref_s.push_back(reference_kernel_s());
  ops.check(started, "daemon start: " + error);
  if (!started) return;

  muri::obs::MetricsRegistry& reg = daemon->metrics();
  Http http{daemon->port(), spans, &ops};
  const std::size_t jobs = trace.jobs.size();
  double now = 0;
  double step_busy_s = 0;
  std::int64_t rounds_seen = 0;
  std::int64_t summary_rounds = rounds_summary_count(reg);
  double schedule_s = registry_phase_sum(reg, "schedule");
  std::string last_poll;

  auto step = [&](double dt) {
    Scope span(spans, "step", "service");
    const Clock::time_point t0 = Clock::now();
    daemon->step(dt);
    const double step_s = seconds_since(t0);
    step_busy_s += step_s;
    // A step ran a round iff the daemon's per-round wall summary grew.
    const std::int64_t after = rounds_summary_count(reg);
    if (after > summary_rounds) {
      rounds_seen += after - summary_rounds;
      rep.rounds_ms.push_back(step_s * 1e3);
      const double schedule_after = registry_phase_sum(reg, "schedule");
      rep.sched_ms.push_back((schedule_after - schedule_s) * 1e3);
      schedule_s = schedule_after;
    }
    summary_rounds = after;
    now += dt;
  };
  // Returns the number of finished jobs the poll lists.
  auto poll = [&]() -> std::size_t {
    muri::service::ClientResponse resp;
    const double ms = http.request("GET", "/jobs", "", resp);
    if (ms < 0) return 0;
    ops.check(resp.status == 200,
              "GET /jobs answered " + std::to_string(resp.status));
    rep.poll_ms.push_back(ms);
    v["poll_bytes"] += static_cast<double>(resp.body.size());
    last_poll = std::move(resp.body);
    return count_occurrences(last_poll, "\"state\":\"finished\"");
  };

  const Clock::time_point t_run = Clock::now();
  {
    Scope span(spans, "replay", "client");
    for (std::size_t i = 0; i < jobs; ++i) {
      const muri::Job& job = trace.jobs[i];
      step(job.submit_time - now);
      muri::service::ClientResponse resp;
      const double ms =
          http.request("POST", "/jobs", submit_body(job, i), resp);
      if (ms >= 0) {
        ops.check(resp.status == 202,
                  "POST /jobs answered " + std::to_string(resp.status) +
                      ": " + resp.body);
        rep.submit_ms.push_back(ms);
      }
      step(0);  // drain the submission and run its round
      poll();
    }
    // Drain: step the clock until every job is listed as finished.
    std::size_t finished = poll();
    const double give_up = now + 365.0 * 24 * 3600;
    while (finished < jobs && now < give_up) {
      step(kDrainStepS);
      finished = poll();
    }
    ops.check(finished == jobs, "daemon_replay: " + std::to_string(finished) +
                                    " of " + std::to_string(jobs) +
                                    " jobs finished");
  }
  v["wall_s"] += seconds_since(t_run);

  // JCTs from the final listing, in simulated seconds.
  double jct_sum = 0;
  std::size_t jct_n = 0;
  muri::obs::JsonValue root;
  if (muri::obs::parse_json(last_poll, root)) {
    for (const muri::obs::JsonValue& j : root.at("jobs").array) {
      if (j.at("end_t").is_number() && j.at("submit_t").is_number()) {
        jct_sum += j.at("end_t").number - j.at("submit_t").number;
        ++jct_n;
      }
    }
  }
  ops.check(jct_n == jobs, "daemon_replay: final listing has " +
                               std::to_string(jct_n) + " completed jobs");

  const auto rounds_total = static_cast<std::int64_t>(
      registry_gauge(reg, "muri_daemon_rounds_total"));
  v["jobs"] += static_cast<double>(jct_n);
  v["jct_sum_s"] += jct_sum;
  v["wal.bytes"] += registry_gauge(reg, "muri_wal_appended_bytes");
  v["wal.fsyncs"] += registry_gauge(reg, "muri_wal_fsyncs_total");
  v["wal.io_s"] += registry_phase_sum(reg, "wal");
  v["wal_jobs"] += static_cast<double>(jobs);
  v["daemon.step_busy_s"] += step_busy_s;
  v["sched.busy_s"] += registry_phase_sum(reg, "schedule");
  v["daemon.place_s"] += registry_phase_sum(reg, "place");
  v["driver.self_s"] += step_busy_s - registry_phase_sum(reg, "schedule");
  v["sched.rounds"] += static_cast<double>(rounds_total);

  daemon->stop("perfbench");
  daemon.reset();
  const std::string wal = slurp(wal_path);

  // The rounds the loop timed come from the daemon's round-wall summary,
  // which grows right after each run_round, as does the rounds gauge. The
  // scheduler writes a round_start decision record at the top of each
  // schedule(), and the WAL persists every record, so the WAL on disk
  // checks both from another path.
  const auto logged_rounds = static_cast<std::int64_t>(
      count_occurrences(wal, "{\"type\":\"round_start\""));
  ops.check(rounds_total == logged_rounds && rounds_seen == logged_rounds,
            "daemon_replay: the WAL logs " + std::to_string(logged_rounds) +
                " rounds, muri_daemon_rounds_total is " +
                std::to_string(rounds_total) + ", the stepping loop timed " +
                std::to_string(rounds_seen));

  // Restart over the WAL the replay wrote.
  options.resume = true;
  auto resumed = std::make_unique<muri::service::MuriDaemon>(options);
  bool resumed_ok = false;
  const Clock::time_point t_rec = Clock::now();
  {
    Scope span(spans, "resume_start", "recovery");
    resumed_ok = resumed->start(&error);
  }
  v["recover_s"] += seconds_since(t_rec);
  v["recoveries"] += 1;
  ops.check(resumed_ok, "resume start: " + error);
  if (resumed_ok) {
    // The resumed daemon re-admits every unfinished job it recovers, so
    // an empty listing means none was left unfinished, and the id it
    // hands the next submission shows it recovered all of them.
    muri::service::ClientResponse list;
    muri::service::ClientResponse probe;
    const bool listed = muri::service::http_request(resumed->port(), "GET",
                                                    "/jobs", "", list);
    const bool probed = muri::service::http_request(
        resumed->port(), "POST", "/jobs", submit_body(trace.jobs[0], jobs),
        probe);
    ops.check(listed && list.status == 200 &&
                  list.body.find("\"jobs\":[]") != std::string::npos,
              "resumed daemon still lists unfinished jobs: " + list.body);
    ops.check(probed && probe.status == 202 &&
                  probe.body.find("\"job\":" + std::to_string(jobs)) !=
                      std::string::npos,
              "resumed daemon did not recover all " + std::to_string(jobs) +
                  " jobs; next submission got " + probe.body);
    resumed->stop("perfbench");
  }
  resumed.reset();
  fs::remove(wal_path);

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "[draw %" PRIu64 " jobs=%zu jct_sum=%a rounds=%" PRId64
                " wal_bytes=%zu wal_fnv=%016" PRIx64 "]",
                draw, jct_n, jct_sum, rounds_total, wal.size(), fnv1a(wal));
  rep.outputs += buf;
}

void run_draw(const std::string& workload, std::uint64_t draw,
              const std::string& work_dir, SpanLog* spans, Ops& ops,
              Rep& rep) {
  if (workload == "daemon_replay") {
    run_daemon_draw(draw, work_dir, spans, ops, rep);
  } else {
    run_sim_draw(workload, draw, spans, ops, rep);
  }
}

// Runs the repetition's draws and forms its ratios from their sums.
Rep run_rep(const std::string& workload, std::uint64_t seed,
            const std::string& work_dir, LoopbackReference* loopback,
            SpanLog* spans, Ops& ops) {
  Rep rep;
  const int draws = draws_per_rep(workload);
  auto& v = rep.values;
  for (int k = 0; k < draws; ++k) {
    const double wall0 = v["wall_s"], jobs0 = v["jobs"], rec0 = v["recover_s"];
    const double step0 = v["daemon.step_busy_s"];
    if (loopback != nullptr) rep.loop_s.push_back(loopback->sample_s());
    run_draw(workload, draw_seed(seed, k, draws), work_dir, spans, ops, rep);
    const double before = rep.ref_s.back();
    rep.ref_s.push_back(reference_kernel_s());
    const double draw_ref_s = 0.5 * (before + rep.ref_s.back());
    const double wall = v["wall_s"] - wall0;
    // The replay's time outside MuriDaemon::step is its requests' (and a
    // little client work), scaled by the loopback reference; the rest
    // runs in this process and is scaled by the CPU kernel.
    double request_s = 0;
    double request_scale = 0;
    if (loopback != nullptr) {
      rep.loop_s.push_back(loopback->sample_s());
      request_s = wall - (v["daemon.step_busy_s"] - step0);
      request_scale = kLoopbackNominalS /
                      (0.5 * (rep.loop_s[rep.loop_s.size() - 2] +
                              rep.loop_s.back()));
    }
    rep.draw_wall_s.push_back(wall);
    rep.draw_norm_wall_s.push_back((wall - request_s) * kRefNominalS /
                                       draw_ref_s +
                                   request_s * request_scale);
    rep.draw_jobs.push_back(v["jobs"] - jobs0);
    rep.draw_recover_s.push_back(v["recover_s"] - rec0);
  }
  const double wall_s = v["wall_s"];
  v["jobs_per_s"] = v["jobs"] / wall_s;
  v["avg_jct_s"] = v["jct_sum_s"] / v["jobs"];
  v["sched.share"] = v["sched.busy_s"] / wall_s;
  if (workload == "daemon_replay") {
    v["wal_bytes_per_job"] = v["wal.bytes"] / v["wal_jobs"];
    v["recovery.recover_s"] = v["recover_s"] / v["recoveries"];
    v["daemon.step_other_s"] = v["daemon.step_busy_s"] - v["sched.busy_s"] -
                               v["daemon.place_s"];
    double submit_s = 0;
    for (const double ms : rep.submit_ms) submit_s += ms / 1e3;
    double poll_s = 0;
    for (const double ms : rep.poll_ms) poll_s += ms / 1e3;
    v["http.submit_busy_s"] = submit_s;
    v["http.poll_busy_s"] = poll_s;
    v["http.poll_bytes_avg"] =
        v["poll_bytes"] / static_cast<double>(rep.poll_ms.size());
    v["client.self_s"] = wall_s - v["daemon.step_busy_s"] - submit_s - poll_s;
  } else {
    v["sched.unattributed_s"] = v["sched.busy_s"] - v["sched.sort_s"] -
                                v["sched.graph_s"] - v["sched.match_s"] -
                                v["sched.admit_s"];
    const double lookups = v["gamma_cache_hits"] + v["interleave.gamma_evals"];
    v["interleave.gamma_cache_hit_ratio"] =
        lookups > 0 ? v["gamma_cache_hits"] / lookups : 0.0;
  }
  return rep;
}

// ------------------------------------------------------------- the run

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload != "sim_backlog" && a.workload != "sim_faults" &&
      a.workload != "daemon_replay") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!have_seed) throw std::invalid_argument("--seed is required");
  return a;
}

double median_of(const std::vector<Rep>& reps, const std::string& key) {
  std::vector<double> xs;
  for (const Rep& r : reps) xs.push_back(r.values.at(key));
  return perfbench::median(std::move(xs));
}

// Median over repetitions of each repetition's tail; prints the rule's
// percentile and sample count.
double median_tail(const std::vector<Rep>& reps,
                   std::vector<double> Rep::*samples, const char* label) {
  std::vector<double> values;
  perfbench::Tail last;
  for (const Rep& r : reps) {
    last = perfbench::tail(r.*samples);
    values.push_back(last.value);
  }
  std::printf("%s: p%g over %zu samples per repetition (%zu beyond)%s\n",
              label, last.percentile, last.samples, last.beyond,
              last.qualified ? "" : " [fewer than 10 beyond]");
  return perfbench::median(std::move(values));
}

double median_p50(const std::vector<Rep>& reps,
                  std::vector<double> Rep::*samples) {
  std::vector<double> values;
  for (const Rep& r : reps) values.push_back(perfbench::median(r.*samples));
  return perfbench::median(std::move(values));
}

// Sum over the draws of each draw's median over `reps`. Pooling the draws
// this way, rather than taking the median of the repetitions' sums, lets a
// slow host phase spoil one sample of one draw instead of a whole
// repetition.
double sum_of_draw_medians(const std::vector<Rep>& reps,
                           std::vector<double> Rep::*per_draw) {
  double sum = 0;
  for (std::size_t k = 0; k < (reps.front().*per_draw).size(); ++k) {
    std::vector<double> xs;
    for (const Rep& r : reps) xs.push_back((r.*per_draw)[k]);
    sum += perfbench::median(std::move(xs));
  }
  return sum;
}

// Trace jobs finished per second of each draw's median wall time.
double jobs_per_s(const std::vector<Rep>& reps) {
  return sum_of_draw_medians(reps, &Rep::draw_jobs) /
         sum_of_draw_medians(reps, &Rep::draw_wall_s);
}

// Median over every draw of `reps` of a once-per-draw sample.
double median_pooled(const std::vector<Rep>& reps,
                     std::vector<double> Rep::*samples) {
  std::vector<double> xs;
  for (const Rep& r : reps) {
    xs.insert(xs.end(), (r.*samples).begin(), (r.*samples).end());
  }
  return perfbench::median(std::move(xs));
}

// The result line of --trace 0: every workload reports these, in this
// order (BENCHMARK.json's end_to_end). The other end-to-end metrics are
// printed for reference only. Raw wall times drift with the host from
// minute to minute: sim_faults jobs_per_s had medians of 5.4k, 6.5k and
// 7.3k over three successive sets of ten 35 s runs. The *_norm metrics
// divide that drift out (see kRefNominalS) and are reported instead.
// Round latencies and request round trips are reference only: their tails
// land on a few rounds whose number varies by draw, and the daemon's meet
// cross-thread wake-ups over loopback, which no kernel tracks. So is
// recover_s_norm: the simulators time their recovery once per run (see
// SimWal). And so is peak_rss_mb: every draw starts a new scheduler pool,
// whose threads get malloc arenas, and on sim_backlog the peak after the
// first repetition ranged 14-21 MiB over runs of the same code.
// perfbench/README.md gives the measured spreads.
const std::vector<std::string> kEndToEnd = {"setup_s", "jobs_per_s_norm",
                                            "avg_jct_s", "wal_bytes_per_job"};

// The result line of --trace 1: the per-layer metrics every workload can
// observe (BENCHMARK.json's per_layer). A workload's own extras, such as
// the scheduler's phase timers in the simulator or the HTTP timings of
// the daemon, are printed but left out, because the other workloads
// cannot observe them and would have to report a zero.
const std::vector<std::string> kPerLayer = {
    "job.trace_gen_s",     "sched.busy_s",
    "sched.share",         "sched.rounds",
    "sched.round_p50_ms",  "sched.round_tail_ms",
    "driver.self_s",       "wal.bytes",
    "wal.fsyncs",          "wal.io_s",
    "recovery.recover_s",  "host.ref_ms",
    "trace.jobs_per_s_traced", "trace.jobs_per_s_untraced",
    "trace.overhead_ratio"};

void mark_result(std::vector<Metric>& metrics,
                 const std::vector<std::string>& result) {
  std::size_t found = 0;
  for (Metric& m : metrics) {
    m.in_result =
        std::find(result.begin(), result.end(), m.name) != result.end();
    found += m.in_result ? 1 : 0;
  }
  if (found != result.size()) {
    throw std::logic_error("a result-line metric was not measured");
  }
}

std::vector<Metric> end_to_end(const std::string& workload,
                               const std::vector<Rep>& reps, double rss_mb) {
  const double ref_s = median_pooled(reps, &Rep::ref_s);
  const double to_nominal = kRefNominalS / ref_s;
  const double rate = jobs_per_s(reps);
  // The simulators recover once per run (SimWal); the daemon every draw.
  const double recover_s =
      workload == "daemon_replay"
          ? sum_of_draw_medians(reps, &Rep::draw_recover_s) /
                static_cast<double>(reps.front().draw_recover_s.size())
          : median_of(reps, "recovery.recover_s");
  std::vector<Metric> m;
  m.push_back({"setup_s", "s", median_pooled(reps, &Rep::setup_s)});
  m.push_back({"jobs_per_s_norm", "1/s",
               sum_of_draw_medians(reps, &Rep::draw_jobs) /
                   sum_of_draw_medians(reps, &Rep::draw_norm_wall_s)});
  m.push_back({"avg_jct_s", "s", median_of(reps, "avg_jct_s")});
  m.push_back(
      {"wal_bytes_per_job", "B", median_of(reps, "wal_bytes_per_job")});
  m.push_back({"recover_s_norm", "s", recover_s * to_nominal});
  m.push_back({"peak_rss_mb", "MiB", rss_mb});
  m.push_back({"jobs_per_s", "1/s", rate});
  m.push_back({"recover_s", "s", recover_s});
  m.push_back({"round_p50_ms", "ms", median_p50(reps, &Rep::rounds_ms)});
  m.push_back({"round_tail_ms", "ms",
               median_tail(reps, &Rep::rounds_ms, "round_tail_ms")});
  if (workload == "daemon_replay") {
    m.push_back({"submit_p50_ms", "ms", median_p50(reps, &Rep::submit_ms)});
    m.push_back({"poll_p50_ms", "ms", median_p50(reps, &Rep::poll_ms)});
  }
  m.push_back({"host.ref_ms", "ms", ref_s * 1e3});
  if (workload == "daemon_replay") {
    m.push_back({"host.loopback_ms", "ms",
                 median_pooled(reps, &Rep::loop_s) * 1e3});
  }
  mark_result(m, kEndToEnd);
  return m;
}

// Per-layer metrics of the traced repetitions, plus the tracing overhead
// against the untraced ones.
std::vector<Metric> per_layer(const std::string& workload,
                              const std::vector<Rep>& traced,
                              const std::vector<Rep>& untraced,
                              const SpanLog& spans) {
  static const std::vector<std::pair<const char*, const char*>> kShared = {
      {"job.trace_gen_s", "s"}, {"sched.busy_s", "s"},
      {"sched.share", "ratio"}, {"sched.rounds", "count"},
      {"driver.self_s", "s"},   {"wal.bytes", "B"},
      {"wal.fsyncs", "count"},  {"wal.io_s", "s"},
      {"recovery.recover_s", "s"},
  };
  static const std::vector<std::pair<const char*, const char*>> kSim = {
      {"sched.sort_s", "s"},
      {"sched.graph_s", "s"},
      {"sched.match_s", "s"},
      {"sched.admit_s", "s"},
      {"sched.unattributed_s", "s"},
      {"matching.blossom_calls", "count"},
      {"matching.fallbacks", "count"},
      {"interleave.gamma_evals", "count"},
      {"interleave.gamma_cache_hit_ratio", "ratio"},
      {"sim.restarts", "count"},
      {"sim.faults", "count"},
      {"sim.evictions", "count"},
      {"sim.machine_failures", "count"},
  };
  static const std::vector<std::pair<const char*, const char*>> kDaemon = {
      {"daemon.step_busy_s", "s"}, {"daemon.place_s", "s"},
      {"daemon.step_other_s", "s"}, {"http.submit_busy_s", "s"},
      {"http.poll_busy_s", "s"},   {"http.poll_bytes_avg", "B"},
      {"client.self_s", "s"},
  };
  const bool daemon = workload == "daemon_replay";
  std::vector<Metric> m;
  for (const auto& [name, unit] : kShared) {
    m.push_back({name, unit, median_of(traced, name)});
  }
  m.push_back({"sched.round_p50_ms", "ms", median_p50(traced, &Rep::sched_ms)});
  m.push_back({"sched.round_tail_ms", "ms",
               median_tail(traced, &Rep::sched_ms, "sched.round_tail_ms")});
  m.push_back({"host.ref_ms", "ms", median_pooled(traced, &Rep::ref_s) * 1e3});
  const double traced_rate = jobs_per_s(traced);
  const double untraced_rate = jobs_per_s(untraced);
  m.push_back({"trace.jobs_per_s_traced", "1/s", traced_rate});
  m.push_back({"trace.jobs_per_s_untraced", "1/s", untraced_rate});
  m.push_back({"trace.overhead_ratio", "ratio", untraced_rate / traced_rate});
  for (const auto& [name, unit] : daemon ? kDaemon : kSim) {
    m.push_back({name, unit, median_of(traced, name)});
  }
  if (daemon) {
    m.push_back({"service.round_p50_ms", "ms",
                 median_p50(traced, &Rep::rounds_ms)});
    m.push_back({"service.round_tail_ms", "ms",
                 median_tail(traced, &Rep::rounds_ms,
                             "service.round_tail_ms")});
    m.push_back({"http.submit_p50_ms", "ms",
                 median_p50(traced, &Rep::submit_ms)});
    m.push_back({"http.poll_p50_ms", "ms", median_p50(traced, &Rep::poll_ms)});
    m.push_back({"http.submit_tail_ms", "ms",
                 median_tail(traced, &Rep::submit_ms, "http.submit_tail_ms")});
    m.push_back({"http.poll_tail_ms", "ms",
                 median_tail(traced, &Rep::poll_ms, "http.poll_tail_ms")});
  }
  mark_result(m, kPerLayer);

  std::printf("self time per layer (traced repetitions, summed):\n");
  for (const auto& [layer, s] : spans.self_by_layer()) {
    std::printf("  %-10s %12.6f s\n", layer.c_str(), s);
  }
  std::printf(
      "tracing overhead: jobs_per_s untraced %.6g, traced %.6g "
      "(untraced/traced = %.4f)\n",
      untraced_rate, traced_rate, untraced_rate / traced_rate);
  return m;
}

std::string facts_json(const Args& a) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"nproc\":%d,\"pool_threads\":%d,\"pool_workers\":%d,"
                "\"pool_rule\":\"hardware_concurrency\",\"compiler\":\"%s\","
                "\"build_type\":\"%s\",\"wal_fs\":\"%s\"}",
                a.workload.c_str(), a.seed, nproc(), pool_threads(),
                pool_threads() - 1, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                filesystem_of(a.work_dir).c_str());
  return buf;
}

int run(const Args& a) {
  fs::create_directories(a.work_dir);
  const std::string facts = facts_json(a);
  std::printf("host: %s\n", facts.c_str());

  Ops ops;
  SpanLog spans;
  std::unique_ptr<LoopbackReference> loopback;
  double rss_mb = 0;
  std::vector<Rep> reps;  // untraced
  std::vector<Rep> traced;
  auto one = [&](std::vector<Rep>& into, SpanLog* log) {
    if (log != nullptr) log->begin_run();
    into.push_back(
        run_rep(a.workload, a.seed, a.work_dir, loopback.get(), log, ops));
    const Rep& r = into.back();
    std::fprintf(stderr,
                 "perfbench: repetition %zu %s: wall_s=%.6f jobs_per_s=%.6g "
                 "peak_rss_mb=%.6g host.ref_ms=%.6g\n",
                 into.size(), log != nullptr ? "traced" : "untraced",
                 r.values.at("wall_s"), r.values.at("jobs_per_s"),
                 peak_rss_mb(), median_pooled({r}, &Rep::ref_s) * 1e3);
    // The process's peak after the warm-up and the first repetition: a
    // fixed amount of work. Later repetitions raise the peak a little
    // each (every draw starts a new scheduler pool, whose threads keep
    // their own malloc arenas), so a later reading would follow how many
    // repetitions the host's speed let the run fit in.
    if (into.size() == 1 && log == nullptr) rss_mb = peak_rss_mb();
  };

  reference_kernel_s();  // builds its buffers before any draw
  if (a.workload == "daemon_replay") {
    loopback = std::make_unique<LoopbackReference>();
  }

  // One draw before timing, so process-wide lazy set-up (allocator
  // arenas, the page cache, the daemon's first HTTP bind) is not charged
  // to the first repetition. Each draw builds its own scheduler, so each
  // timed draw still starts that scheduler's thread pool, on its first
  // contended round.
  Rep warmup;
  const std::uint64_t draw0 = draw_seed(a.seed, 0, draws_per_rep(a.workload));
  run_draw(a.workload, draw0, a.work_dir, nullptr, ops, warmup);

  // Repetitions run while the next one, at the mean time so far, still
  // ends within --seconds.
  const Clock::time_point t0 = Clock::now();
  auto more = [&](std::size_t done, std::size_t at_least) {
    if (done < at_least) return true;
    const double elapsed = seconds_since(t0);
    return elapsed + elapsed / static_cast<double>(done) <= a.seconds;
  };
  if (a.trace) {
    while (more(traced.size(), 2)) {
      one(reps, nullptr);
      one(traced, &spans);
    }
  } else {
    while (more(reps.size(), kMinReps)) one(reps, nullptr);
  }

  if (a.workload != "daemon_replay") {
    Rep durable;
    const SimWal wal =
        write_sim_wal(a.workload, draw0, a.work_dir, ops, durable);
    ops.check(durable.outputs == warmup.outputs,
              "the decision log changed the run: '" + durable.outputs +
                  "' vs '" + warmup.outputs + "'");
    for (std::vector<Rep>* group : {&reps, &traced}) {
      for (Rep& r : *group) add_sim_wal(wal, r);
    }
    std::printf("wal: %s\n", wal.digest.c_str());
  }

  // Every repetition must reproduce the first one's outputs exactly, and
  // the warm-up its first draw (the log must not perturb the run).
  const std::string& first = reps.front().outputs;
  ops.check(first.rfind(warmup.outputs, 0) == 0,
            "warm-up outputs differ: '" + warmup.outputs + "' vs '" + first +
                "'");
  for (const std::vector<Rep>* group : {&reps, &traced}) {
    for (const Rep& r : *group) {
      ops.check(r.outputs == first, "repetition outputs differ: '" +
                                        r.outputs + "' vs '" + first + "'");
    }
  }
  std::printf("outputs: %s\n", first.c_str());
  std::printf("repetitions: %zu untraced, %zu traced\n", reps.size(),
              traced.size());

  std::vector<Metric> metrics =
      a.trace ? per_layer(a.workload, traced, reps, spans)
              : end_to_end(a.workload, reps, rss_mb);
  if (a.trace) {
    const std::string path = a.work_dir + "/spans-" + a.workload + "-" +
                             std::to_string(a.seed) + ".json";
    ops.check(spans.write_json(path, facts), "write spans to " + path);
    std::printf("spans: %s\n", path.c_str());
  }

  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %-6s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.in_result ? "" : " (not in the result line)");
  }
  std::string line = "{\"correct\": ";
  line += ops.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ops.attempted);
  line += ", \"failed\": " + std::to_string(ops.failed);
  line += ", \"metrics\": {";
  bool first_metric = true;
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    if (!first_metric) line += ", ";
    first_metric = false;
    line += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return ops.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "muri_perfbench: %s\n", e.what());
    return 2;
  }
}
