#include "recovery/resume.h"

namespace muri::recovery {

bool resume_simulation(const Trace& trace, Scheduler& scheduler,
                       const SimOptions& sim_options,
                       const ResumeOptions& options, SimResult& result,
                       ResumeReport& report, std::string* error) {
  report = ResumeReport{};

  // The sink reads the durable prefix once: it truncates a torn tail and
  // folds the state a daemon would serve from while catching up. Then
  // the deterministic re-execution byte-verifies that prefix as it
  // regenerates it, and new records append past the old tail. A missing
  // file is a cold start.
  DurableSinkOptions sink_options = options.sink;
  sink_options.resume = true;
  DurableSink sink(options.wal_path, sink_options);
  if (!sink.ok()) {
    if (error != nullptr) *error = sink.error();
    return false;
  }
  report.recovered = sink.recovered();

  obs::DecisionLog log;
  log.set_sink(&sink);
  SimOptions sim = sim_options;
  sim.decisions = &log;
  scheduler.set_decision_log(&log);
  result = run_simulation(trace, scheduler, sim);
  log.set_sink(nullptr);
  sink.close();

  report.records_verified = sink.records_verified();
  report.records_appended = sink.records_appended();
  report.diverged = sink.diverged();
  if (!sink.ok()) {
    if (error != nullptr) *error = sink.error();
    return false;
  }
  return true;
}

}  // namespace muri::recovery
