// Full trace-driven cluster simulation with a CLI — the workhorse example.
//
//   ./examples/trace_sim --trace 2 --scheduler Muri-L
//   ./examples/trace_sim --trace testbed --scheduler SRSF --known
//   ./examples/trace_sim --csv my_trace.csv --scheduler Tiresias
//       --machines 16 --gpus-per-machine 8 --interval 300 --series
//   ./examples/trace_sim --trace 1 --zero-arrivals --scheduler Muri-L-2
//
// Flags:
//   --trace N | testbed     built-in trace (1..4 or the 400-job testbed)
//   --csv PATH              load a trace from CSV instead
//   --scheduler NAME        FIFO SRTF SRSF Tiresias Themis AntMan
//                           Muri-S Muri-L (+ -2/-3/-worstorder/-noblossom)
//   --known                 expose job durations to the scheduler
//   --zero-arrivals         submit everything at t=0
//   --machines N --gpus-per-machine N
//   --interval SECONDS --restart-penalty SECONDS
//   --noise X               profiling noise n_p in [0,1]
//   --series                print downsampled metric time series
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/flags.h"
#include "scheduler/baselines.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

using namespace muri;

namespace {

std::unique_ptr<Scheduler> scheduler_by_name(const std::string& name) {
  if (name == "FIFO") return std::make_unique<FifoScheduler>();
  if (name == "SRTF") return std::make_unique<SrtfScheduler>();
  if (name == "SRSF") return std::make_unique<SrsfScheduler>();
  if (name == "Tiresias") return std::make_unique<TiresiasScheduler>();
  if (name == "Themis") return std::make_unique<ThemisScheduler>();
  if (name == "AntMan") return std::make_unique<AntManScheduler>();
  if (name.rfind("Muri", 0) == 0) {
    MuriOptions opt;
    opt.durations_known = name.rfind("Muri-S", 0) == 0;
    if (name.find("-2") != std::string::npos) opt.max_group_size = 2;
    if (name.find("-3") != std::string::npos) opt.max_group_size = 3;
    if (name.find("-worstorder") != std::string::npos) {
      opt.ordering = OrderingPolicy::kWorst;
    }
    if (name.find("-noblossom") != std::string::npos) opt.use_blossom = false;
    if (name.find("-nobucket") != std::string::npos) opt.bucket_by_gpu = false;
    return std::make_unique<MuriScheduler>(opt);
  }
  throw std::invalid_argument("unknown scheduler '" + name + "'");
}

void print_series(const char* label,
                  const std::vector<SeriesRecorder::Point>& points) {
  std::printf("%-10s:", label);
  const size_t step = std::max<size_t>(1, points.size() / 16);
  for (size_t i = 0; i < points.size(); i += step) {
    std::printf(" %.1f", points[i].value);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);

    Trace trace;
    if (flags.has("csv")) {
      const std::string path = flags.get("csv");
      trace = read_trace_csv(path, path);
    } else {
      const std::string id = flags.get("trace", "1");
      trace = id == "testbed" ? testbed_trace() : standard_trace(std::stoi(id));
    }
    if (flags.get_bool("zero-arrivals")) trace = zero_arrivals(std::move(trace));

    const std::string sched_name = flags.get("scheduler", "Muri-L");
    auto scheduler = scheduler_by_name(sched_name);

    SimOptions options;
    options.cluster.num_machines = flags.get_int("machines", 8);
    options.cluster.gpus_per_machine = flags.get_int("gpus-per-machine", 8);
    options.schedule_interval = flags.get_double("interval", 360);
    options.restart_penalty = flags.get_double("restart-penalty", 30);
    options.profiler.noise = flags.get_double("noise", 0.0);
    options.durations_known =
        flags.get_bool("known") || scheduler->needs_durations();
    options.record_series = flags.get_bool("series");

    warn_unread(flags);

    std::printf("trace %s: %zu jobs, %.0f GPU-hours of work\n",
                trace.name.c_str(), trace.jobs.size(),
                trace.total_gpu_seconds() / 3600);
    std::printf("cluster: %d machines x %d GPUs, scheduler %s "
                "(durations %s)\n\n",
                options.cluster.num_machines,
                options.cluster.gpus_per_machine, scheduler->name().c_str(),
                options.durations_known ? "known" : "unknown");

    const SimResult r = run_simulation(trace, *scheduler, options);

    std::printf("finished %d/%zu jobs\n", r.finished_jobs, trace.jobs.size());
    std::printf("  avg JCT        %12.0f s\n", r.avg_jct);
    std::printf("  p99 JCT        %12.0f s\n", r.p99_jct);
    std::printf("  makespan       %12.0f s\n", r.makespan);
    std::printf("  avg queue      %12.1f jobs\n", r.avg_queue_length);
    std::printf("  blocking index %12.2f\n", r.avg_blocking_index);
    std::printf("  utilization    io=%.2f cpu=%.2f gpu=%.2f net=%.2f\n",
                r.avg_utilization[0], r.avg_utilization[1],
                r.avg_utilization[2], r.avg_utilization[3]);
    std::printf("  group width    %12.2f jobs/GPU-set\n", r.avg_group_width);
    std::printf("  normalized rate%12.2f of solo speed\n",
                r.avg_normalized_rate);
    std::printf("  scheduler time %12.1f ms over %lld rounds\n",
                r.scheduler_wall_ms,
                static_cast<long long>(r.scheduler_invocations));
    std::printf("  profiling      %d sessions, %.0f s of dry runs\n",
                r.profiler_sessions, r.profiling_time);

    if (options.record_series) {
      std::printf("\ntime series (downsampled):\n");
      print_series("queue", r.queue_series);
      print_series("blocking", r.blocking_series);
      print_series("gpu util",
                   r.util_series[static_cast<size_t>(Resource::kGpu)]);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
