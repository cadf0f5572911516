#include "recovery/replay.h"

#include <algorithm>
#include <cstdio>

#include "common/stats.h"

namespace muri::recovery {

namespace {

using obs::JsonValue;

bool int_array(const JsonValue& v, std::vector<std::int64_t>& out) {
  if (!v.is_array()) return false;
  out.clear();
  out.reserve(v.array.size());
  for (const auto& e : v.array) {
    if (!e.is_number()) return false;
    out.push_back(e.as_int());
  }
  return true;
}

// Removes `job` from every group's member list, dropping groups that
// empty out — the replay mirror of the simulator's running_groups
// bookkeeping on preempt/evict/fault/finish.
void remove_job_from_groups(ReplayState& state, std::int64_t job) {
  for (auto it = state.groups.begin(); it != state.groups.end();) {
    auto& jobs = it->jobs;
    jobs.erase(std::remove(jobs.begin(), jobs.end(), job), jobs.end());
    it = jobs.empty() ? state.groups.erase(it) : it + 1;
  }
}

void drop_running_job(ReplayState& state, std::int64_t job) {
  state.running.erase(job);
  remove_job_from_groups(state, job);
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void append_int_set(std::string& out, const std::set<std::int64_t>& s) {
  out += '[';
  bool first = true;
  for (const std::int64_t v : s) {
    if (!first) out += ',';
    append_int(out, v);
    first = false;
  }
  out += ']';
}

void append_int_vec(std::string& out, const std::vector<std::int64_t>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    append_int(out, v[i]);
  }
  out += ']';
}

}  // namespace

std::vector<std::int64_t> ReplayState::queued() const {
  std::vector<std::int64_t> out;
  for (const std::int64_t job : arrived) {
    if (running.count(job) == 0 && finished.count(job) == 0) {
      out.push_back(job);
    }
  }
  return out;
}

double ReplayState::avg_jct() const { return mean(jcts); }

double ReplayState::p99_jct() const { return percentile(jcts, 99.0); }

bool apply_record(ReplayState& state, const JsonValue& rec,
                  std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!rec.is_object()) return fail("record is not a JSON object");
  const JsonValue& type_v = rec.at("type");
  const JsonValue& round_v = rec.at("round");
  if (!type_v.is_string() || !round_v.is_number()) {
    return fail("record missing \"type\"/\"round\"");
  }
  const std::string& type = type_v.string;
  // Explanation records carry no state; skipped uncounted, they leave a
  // full log and its state-tier WAL replaying to equal states.
  if (obs::is_explanation_record(type)) return true;
  const std::int64_t round = round_v.as_int();
  ++state.records;
  state.round = std::max(state.round, round);
  const JsonValue& t_v = rec.at("t");
  if (t_v.is_number()) state.sim_time = t_v.number;

  const auto field_fail = [&](const char* key) {
    return fail("record type \"" + type + "\" missing field \"" + key + "\"");
  };
  const JsonValue& job_v = rec.at("job");
  if (job_v.is_number()) {
    state.max_job = std::max(state.max_job, job_v.as_int());
  }
  const auto job_of = [&](std::int64_t& out) {
    if (!job_v.is_number()) return false;
    out = job_v.as_int();
    return true;
  };

  if (type == "sim_start") {
    // A fresh run begins: logs shared across several runs (the bench
    // tables do this) reset per-run state here. The record counter and
    // round high-water mark are log-global and survive.
    ++state.runs;
    state.run_complete = false;
    if (!rec.at("machines").is_number() || !rec.at("gpus").is_number()) {
      return field_fail("machines/gpus");
    }
    state.machines = rec.at("machines").as_int();
    state.total_gpus = rec.at("gpus").as_int();
    state.arrived.clear();
    state.running.clear();
    state.finished.clear();
    state.jobs.clear();
    state.placement_round = -1;
    state.groups.clear();
    state.machines_down.clear();
    state.jcts.clear();
    state.makespan = 0;
    state.finished_jobs = 0;
    state.unfinished_jobs = 0;
    state.faults = 0;
    state.restarts = 0;
    state.machine_failures = 0;
    state.evictions = 0;
    state.scheduler_invocations = 0;
  } else if (type == "arrival") {
    std::int64_t job;
    if (!job_of(job)) return field_fail("job");
    state.arrived.insert(job);
  } else if (type == "round_start") {
    ++state.scheduler_invocations;
  } else if (type == "placement") {
    // The simulator re-places every admitted group each round, so the
    // first placement of a new round supersedes the whole previous
    // placement picture.
    if (round != state.placement_round) {
      state.placement_round = round;
      state.groups.clear();
      state.running.clear();
    }
    ReplayGroup group;
    if (!int_array(rec.at("jobs"), group.jobs)) return field_fail("jobs");
    if (!int_array(rec.at("machines"), group.machines)) {
      return field_fail("machines");
    }
    if (!rec.at("gpus").is_number()) return field_fail("gpus");
    group.gpus = rec.at("gpus").as_int();
    if (rec.at("mode").is_string()) group.mode = rec.at("mode").string;
    if (rec.at("owner").is_number()) group.owner = rec.at("owner").as_int();
    for (const std::int64_t job : group.jobs) {
      state.running.insert(job);
      const auto it = state.jobs.find(job);
      if (it != state.jobs.end()) it->second.deadline_s = 0;
    }
    state.groups.push_back(std::move(group));
  } else if (type == "preempt") {
    std::int64_t job;
    if (!job_of(job)) return field_fail("job");
    drop_running_job(state, job);
  } else if (type == "restart") {
    ++state.restarts;
  } else if (type == "evict") {
    std::int64_t job;
    if (!job_of(job)) return field_fail("job");
    drop_running_job(state, job);
    ++state.evictions;
  } else if (type == "fault") {
    std::int64_t job;
    if (!job_of(job)) return field_fail("job");
    drop_running_job(state, job);
    ++state.faults;
  } else if (type == "machine_down") {
    if (!rec.at("machine").is_number()) return field_fail("machine");
    state.machines_down.insert(rec.at("machine").as_int());
    ++state.machine_failures;
  } else if (type == "machine_up") {
    if (!rec.at("machine").is_number()) return field_fail("machine");
    state.machines_down.erase(rec.at("machine").as_int());
  } else if (type == "finish") {
    std::int64_t job;
    if (!job_of(job)) return field_fail("job");
    if (!rec.at("jct").is_number()) return field_fail("jct");
    drop_running_job(state, job);
    state.finished.insert(job);
    state.jobs.erase(job);
    state.jcts.push_back(rec.at("jct").number);
  } else if (type == "sim_end") {
    if (!rec.at("makespan").is_number()) return field_fail("makespan");
    state.makespan = rec.at("makespan").number;
    state.finished_jobs = rec.at("finished").as_int();
    state.unfinished_jobs = rec.at("unfinished").as_int();
    state.run_complete = true;
  } else if (type == "job_submit") {
    // Service-daemon admission (src/service): the online twin of arrival,
    // and the spec a restarted daemon re-admits the job with.
    std::int64_t job;
    if (!job_of(job)) return field_fail("job");
    const JsonValue& model = rec.at("model");
    if (!model.is_string()) return field_fail("model");
    if (!rec.at("gpus").is_number()) return field_fail("gpus");
    if (!rec.at("iterations").is_number()) return field_fail("iterations");
    state.arrived.insert(job);
    ReplayJob& entry = state.jobs[job];
    entry = ReplayJob{};
    if (t_v.is_number()) entry.submit_t = t_v.number;
    entry.model = model.string;
    entry.gpus = rec.at("gpus").as_int();
    entry.iterations = rec.at("iterations").as_int();
    if (rec.at("name").is_string()) entry.name = rec.at("name").string;
    if (rec.at("deadline_s").is_number()) {
      entry.deadline_s = rec.at("deadline_s").number;
    }
  } else if (type == "job_progress" || type == "job_restore") {
    std::int64_t job;
    if (!job_of(job)) return field_fail("job");
    if (!rec.at("done").is_number()) return field_fail("done");
    const auto it = state.jobs.find(job);
    if (it != state.jobs.end()) it->second.done = rec.at("done").number;
  } else if (type == "job_cancel") {
    // A cancelled job leaves the system entirely — not queued, not
    // running, and never a finished/JCT datapoint.
    std::int64_t job;
    if (!job_of(job)) return field_fail("job");
    drop_running_job(state, job);
    state.arrived.erase(job);
    state.jobs.erase(job);
  } else if (type == "daemon_start") {
    // The daemon's cluster shape. No reset: a restarted daemon continues
    // the state its WAL holds.
    if (!rec.at("machines").is_number() || !rec.at("gpus").is_number()) {
      return field_fail("machines/gpus");
    }
    state.machines = rec.at("machines").as_int();
    state.total_gpus = rec.at("gpus").as_int();
  }
  // Every other state type (round_end, degraded_continue, exec_*,
  // daemon_stop, wait, straggler) carries no state replay tracks beyond
  // the counters already bumped.
  return true;
}

std::string state_json(const ReplayState& state) {
  std::string out = "{\"type\":\"replay_state\",\"runs\":";
  append_int(out, state.runs);
  out += ",\"records\":";
  append_int(out, state.records);
  out += ",\"round\":";
  append_int(out, state.round);
  out += ",\"sim_time\":";
  obs::append_json_double(out, state.sim_time);
  out += ",\"run_complete\":";
  out += state.run_complete ? "true" : "false";
  out += ",\"machines\":";
  append_int(out, state.machines);
  out += ",\"gpus\":";
  append_int(out, state.total_gpus);
  out += ",\"arrived\":";
  append_int_set(out, state.arrived);
  out += ",\"running\":";
  append_int_set(out, state.running);
  out += ",\"finished\":";
  append_int_set(out, state.finished);
  out += ",\"max_job\":";
  append_int(out, state.max_job);
  out += ",\"jobs\":[";
  for (auto it = state.jobs.begin(); it != state.jobs.end(); ++it) {
    const ReplayJob& job = it->second;
    if (it != state.jobs.begin()) out += ',';
    out += "{\"job\":";
    append_int(out, it->first);
    out += ",\"t\":";
    obs::append_json_double(out, job.submit_t);
    out += ",\"model\":\"";
    obs::append_json_escaped(out, job.model);
    out += "\",\"gpus\":";
    append_int(out, job.gpus);
    out += ",\"iterations\":";
    append_int(out, job.iterations);
    out += ",\"name\":\"";
    obs::append_json_escaped(out, job.name);
    out += "\",\"deadline_s\":";
    obs::append_json_double(out, job.deadline_s);
    out += ",\"done\":";
    obs::append_json_double(out, job.done);
    out += '}';
  }
  out += ']';
  out += ",\"placement_round\":";
  append_int(out, state.placement_round);
  out += ",\"groups\":[";
  for (std::size_t i = 0; i < state.groups.size(); ++i) {
    const ReplayGroup& g = state.groups[i];
    if (i != 0) out += ',';
    out += "{\"jobs\":";
    append_int_vec(out, g.jobs);
    out += ",\"gpus\":";
    append_int(out, g.gpus);
    out += ",\"mode\":\"";
    out += g.mode;  // modes are identifier-safe literals
    out += "\",\"machines\":";
    append_int_vec(out, g.machines);
    out += ",\"owner\":";
    append_int(out, g.owner);
    out += '}';
  }
  out += "],\"machines_down\":";
  append_int_set(out, state.machines_down);
  out += ",\"jcts\":[";
  for (std::size_t i = 0; i < state.jcts.size(); ++i) {
    if (i != 0) out += ',';
    obs::append_json_double(out, state.jcts[i]);
  }
  out += "],\"makespan\":";
  obs::append_json_double(out, state.makespan);
  out += ",\"finished_jobs\":";
  append_int(out, state.finished_jobs);
  out += ",\"unfinished_jobs\":";
  append_int(out, state.unfinished_jobs);
  out += ",\"faults\":";
  append_int(out, state.faults);
  out += ",\"restarts\":";
  append_int(out, state.restarts);
  out += ",\"machine_failures\":";
  append_int(out, state.machine_failures);
  out += ",\"evictions\":";
  append_int(out, state.evictions);
  out += ",\"scheduler_invocations\":";
  append_int(out, state.scheduler_invocations);
  out += "}\n";
  return out;
}

std::string state_text(const ReplayState& state) {
  std::string out = "replay state after " + std::to_string(state.records) +
                    " records (round " + std::to_string(state.round) + ", t=";
  obs::append_json_double(out, state.sim_time);
  out += ")\n";
  out += "  runs: " + std::to_string(state.runs) +
         (state.run_complete ? " (last complete)" : " (last in flight)") +
         "\n";
  out += "  cluster: " + std::to_string(state.machines) + " machines, " +
         std::to_string(state.total_gpus) + " GPUs";
  if (!state.machines_down.empty()) {
    out += "; down:";
    for (const std::int64_t m : state.machines_down) {
      out += ' ' + std::to_string(m);
    }
  }
  out += '\n';
  const std::vector<std::int64_t> queued = state.queued();
  out += "  jobs: " + std::to_string(state.arrived.size()) + " arrived, " +
         std::to_string(queued.size()) + " queued, " +
         std::to_string(state.running.size()) + " running, " +
         std::to_string(state.finished.size()) + " finished\n";
  out += "  groups (placement round " +
         std::to_string(state.placement_round) + "):\n";
  for (const ReplayGroup& g : state.groups) {
    out += "    owner " + std::to_string(g.owner) + ": jobs";
    for (const std::int64_t j : g.jobs) out += ' ' + std::to_string(j);
    out += " | " + std::to_string(g.gpus) + " GPUs, " +
           (g.mode.empty() ? std::string("?") : g.mode) + ", machines";
    for (const std::int64_t m : g.machines) out += ' ' + std::to_string(m);
    out += '\n';
  }
  if (state.groups.empty()) out += "    (none)\n";
  out += "  counters: " + std::to_string(state.scheduler_invocations) +
         " rounds, " + std::to_string(state.restarts) + " restarts, " +
         std::to_string(state.faults) + " faults, " +
         std::to_string(state.evictions) + " evictions, " +
         std::to_string(state.machine_failures) + " machine failures\n";
  if (state.run_complete) {
    out += "  result: makespan ";
    obs::append_json_double(out, state.makespan);
    out += ", avg JCT ";
    obs::append_json_double(out, state.avg_jct());
    out += ", " + std::to_string(state.finished_jobs) + " finished, " +
           std::to_string(state.unfinished_jobs) + " unfinished\n";
  }
  return out;
}

bool ReplayEngine::replay(std::string_view jsonl, std::string* error,
                          std::string* tail_warning) {
  std::vector<obs::DecisionRecord> records;
  if (!obs::parse_decision_log(jsonl, records, error, tail_warning)) {
    return false;
  }
  for (const obs::DecisionRecord& rec : records) {
    if (!apply_record(state_, rec.value, error)) return false;
  }
  return true;
}

}  // namespace muri::recovery
