// Shared execution model: how a placed group actually runs (DESIGN.md §5).
//
// Given the ground-truth profiles of a group's members and its sharing
// mode, computes the per-member wall seconds per iteration and the
// schedule-time γ prediction. This is the single source of truth for the
// period arithmetic: the execution engine (sim/engine) calls it when it
// places a plan and when it re-plans a degraded group, for the batch
// simulator and the live daemon alike.
//
//  - exclusive job (or any single member): period = Σ_r t^r; a multi-member
//    exclusive group time-shares sequentially (period sum as the window).
//  - interleaved group: max-min fair fluid rates (sim/fluid.h) under demand
//    inflation (1 + α(p-1)) × ordering penalty T_chosen/T_best ×
//    mis-planning penalty (barrier pacing gap, Fig. 14) × schedule-quality
//    penalty (1 + gamma_penalty·(1-γ)), plus a cascade factor for
//    mixed-GPU groups.
//  - uncoordinated sharing: the same fluid model with the larger
//    interference inflation (1+β) and no coordination benefit.
//
// The arithmetic (multiplication order included) is pinned by the golden
// tests (tests/golden): any change to it moves their digests.
#pragma once

#include <vector>

#include "common/types.h"
#include "job/model.h"
#include "scheduler/scheduler.h"

namespace muri {

// The execution-model knobs (SimOptions::exec).
struct ExecModelParams {
  // Interleaving overhead per extra group member (residual contention;
  // §6.2 explains why grouped speedups fall short of ideal). Calibrated so
  // testbed-scale runs land near the paper's reported speedups while the
  // Table 2 four-job group stays in the ~2-3× total-normalized band.
  double alpha = 0.02;
  // Schedule-quality penalty: a group whose best achievable interleaving
  // efficiency γ (Eq. 4) is low cannot pipeline its stages cleanly, so its
  // demands inflate by (1 + gamma_penalty·(1-γ)). This is the execution-
  // side counterpart of the paper's claim that γ predicts interleaving
  // quality — and what makes Blossom's γ-maximizing matching actually pay
  // off at run time (Fig. 11).
  double gamma_penalty = 0.20;
  // Interference inflation for uncoordinated (AntMan-style) sharing; the
  // §2.1 example (two identical jobs run at ~half speed) corresponds to
  // x = 1/(2·(1+β)/2) ≈ 0.5 at β ≈ 0.4.
  double beta = 0.4;
  // Extra slowdown per log2(GPU-count ratio) for mixed-size groups (only
  // reachable with Muri bucketing disabled).
  double cascade_penalty = 0.25;
  // Per-resource contention inflation (see sim/fluid.h): same-bottleneck
  // co-location gains almost nothing (§2.1, Fig. 13's one-type case).
  double contention_penalty = 0.10;
  double significant_duty = 0.25;
  // Barrier waste per unit of relative gap between the scheduler's planned
  // rotation period and the true one — how inaccurate profiles hurt
  // (Fig. 14).
  double misplan_penalty = 0.5;
};

struct GroupExecution {
  // Wall seconds per iteration for each member (kInf for a starved member).
  std::vector<Duration> periods;
  // Schedule-time γ prediction: best-rotation group_efficiency for shared
  // modes, the solo non-idle fraction for exclusive runs.
  double gamma_pred = 0;
  // The mode the group effectively runs under: equal to the input mode,
  // except that a single-member group always runs exclusively. Degraded
  // re-plans adopt it; the apply-plan path keeps the planned mode.
  GroupMode effective_mode = GroupMode::kExclusive;
};

// Computes the execution of one placed group into `out`, reusing its
// buffers; `stages` is caller-owned scratch for the members' stage times.
//
// `slots`/`offsets`/`planned_period` are the scheduler's rotation schedule
// for kInterleaved groups (empty/0 when unavailable — a malformed or
// absent schedule falls back to the fresh best-order plan, paying no
// ordering penalty but also claiming no planned period). `max_gpus` /
// `min_gpus` are the extreme per-member GPU demands (the mixed-GPU cascade
// factor). `degraded` selects the degraded-continuation rules: a
// multi-member group that is not interleaved shares uncoordinated (the
// survivors lost their rotation), where the plan path time-shares
// sequentially.
void compute_group_execution(
    const std::vector<IterationProfile>& profiles, GroupMode mode,
    int max_gpus, int min_gpus, const std::vector<Resource>& slots,
    const std::vector<int>& offsets, Duration planned_period, bool degraded,
    const ExecModelParams& params, std::vector<ResourceVector>& stages,
    GroupExecution& out);

}  // namespace muri
