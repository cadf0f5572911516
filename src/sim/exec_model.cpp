#include "sim/exec_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "interleave/efficiency.h"
#include "sim/fluid.h"

namespace muri {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double safe_log2_ratio(int hi, int lo) {
  return std::log2(static_cast<double>(hi) / static_cast<double>(lo));
}

}  // namespace

void compute_group_execution(
    const std::vector<IterationProfile>& profiles, GroupMode mode,
    int max_gpus, int min_gpus, const std::vector<Resource>& slots,
    const std::vector<int>& offsets, Duration planned_period, bool degraded,
    const ExecModelParams& params, std::vector<ResourceVector>& stages,
    GroupExecution& out) {
  out.gamma_pred = 0;
  out.effective_mode = mode;
  const auto p = profiles.size();
  out.periods.assign(p, 0.0);
  stages.clear();
  if (p == 0) return;

  for (const IterationProfile& prof : profiles) {
    stages.push_back(prof.stage_time);
  }

  if (mode == GroupMode::kInterleaved && p > 1) {
    // Validate the scheduler's rotation schedule; fall back to a fresh
    // best-order plan if it is unusable against the true profiles.
    const int s = static_cast<int>(slots.size());
    bool schedule_ok =
        offsets.size() == p && static_cast<size_t>(s) >= p &&
        std::set<Resource>(slots.begin(), slots.end()).size() == slots.size();
    if (schedule_ok) {
      std::set<int> distinct(offsets.begin(), offsets.end());
      schedule_ok = distinct.size() == p;
      for (int o : offsets) {
        schedule_ok = schedule_ok && o >= 0 && o < s;
      }
    }
    // The chosen stage ordering sets the execution quality: a misaligned
    // rotation stretches every stage by the ratio of its period to the
    // best achievable one (Fig. 6 / Fig. 11).
    const InterleavePlan best = plan_interleave(stages);
    Duration chosen_period = best.period;
    if (schedule_ok) {
      chosen_period = group_period(stages, slots, offsets);
    }
    const double ordering_factor =
        best.period > 0 ? std::max(1.0, chosen_period / best.period) : 1.0;

    // Barriers are paced by the *planned* schedule; the relative gap
    // between planned and true period becomes idle time (Fig. 14).
    double misplan_factor = 1.0;
    if (planned_period > 0 && chosen_period > 0) {
      const double gap = std::abs(chosen_period - planned_period) /
                         std::max(planned_period, chosen_period);
      misplan_factor = 1.0 + params.misplan_penalty * gap;
    }

    // Schedule quality: groups with poor best-case γ pipeline badly.
    const double gamma_true = group_efficiency(stages, best.period);
    out.gamma_pred = gamma_true;
    const double quality_factor =
        1.0 +
        params.gamma_penalty * (1.0 - std::clamp(gamma_true, 0.0, 1.0));

    FluidOptions fluid;
    fluid.inflation = (1.0 + params.alpha * static_cast<double>(p - 1)) *
                      ordering_factor * misplan_factor * quality_factor;
    if (max_gpus != min_gpus) {
      fluid.inflation *=
          1.0 + params.cascade_penalty * safe_log2_ratio(max_gpus, min_gpus);
    }
    fluid.contention_penalty = params.contention_penalty;
    fluid.significant_duty = params.significant_duty;
    const std::vector<double> rates = max_min_fair_rates(profiles, fluid);
    for (size_t i = 0; i < p; ++i) {
      out.periods[i] =
          rates[i] > 0 ? profiles[i].iteration_time() / rates[i] : kInf;
    }
  } else if (p > 1 && (mode == GroupMode::kUncoordinated || degraded)) {
    // Best-case rotation γ as the prediction: the realized gap shows what
    // uncoordinated sharing leaves on the table (§2.1).
    out.gamma_pred = group_efficiency(stages, plan_interleave(stages).period);
    FluidOptions fluid;
    fluid.inflation = 1.0 + params.beta;
    fluid.contention_penalty = params.contention_penalty;
    fluid.significant_duty = params.significant_duty;
    const std::vector<double> rates = max_min_fair_rates(profiles, fluid);
    for (size_t i = 0; i < p; ++i) {
      out.periods[i] =
          rates[i] > 0 ? profiles[i].iteration_time() / rates[i] : kInf;
    }
  } else {
    Duration solo_sum = 0;
    for (size_t i = 0; i < p; ++i) {
      out.periods[i] = profiles[i].iteration_time();
      solo_sum += out.periods[i];
    }
    // Solo (or sequential-share) non-idle fraction over the used
    // resources — 1/k' for a single k'-resource job.
    out.gamma_pred = group_efficiency(stages, solo_sum);
    if (p == 1) out.effective_mode = GroupMode::kExclusive;
  }
}

}  // namespace muri
