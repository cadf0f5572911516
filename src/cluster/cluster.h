// Cluster model: homogeneous machines with a fixed number of GPUs plus
// per-machine CPU / storage-IO / network capacities, and the GPU placement
// policy of §5 — allocate in descending order of GPU demand, consolidating
// each job (or interleaving group) onto as few machines as possible to
// avoid fragmentation.
//
// Allocation is keyed by an opaque owner id: with interleaving, a *group*
// of jobs owns a GPU set, so the owner is a group, not a job.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace muri {

struct ClusterSpec {
  int num_machines = 8;
  int gpus_per_machine = 8;
  // Informational per-machine capacities (used by the worker monitor and
  // utilization accounting; stages are modeled at full capacity).
  double cpu_cores = 48;
  double storage_mbps = 2000;
  double network_gbps = 100;
};

using OwnerId = std::int64_t;
inline constexpr OwnerId kNoOwner = -1;

class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);

  const ClusterSpec& spec() const noexcept { return spec_; }
  int num_machines() const noexcept { return spec_.num_machines; }
  int total_gpus() const noexcept {
    return spec_.num_machines * spec_.gpus_per_machine;
  }
  int free_gpus() const noexcept { return free_gpus_; }
  int free_gpus_on(MachineId m) const;

  // Fault-domain pool membership: a machine taken out of the pool (crash,
  // blacklist) contributes no free GPUs and is skipped by allocation.
  // Taking a machine out does NOT release its current owners — evict them
  // first (release) so their GPUs do not leak back on recovery.
  void set_machine_available(MachineId m, bool available);
  bool machine_available(MachineId m) const;
  int available_machines() const noexcept { return available_machines_; }
  // GPUs on in-pool machines (allocated or free).
  int available_gpus() const;

  MachineId machine_of(GpuId g) const;
  OwnerId owner_of(GpuId g) const;

  // True if `num_gpus` could be allocated with the consolidation rules
  // below without mutating state.
  bool can_allocate(int num_gpus) const;

  // Allocates `num_gpus` GPUs to `owner`. Placement policy (§5):
  //  - demands of at least one full machine take whole free machines;
  //  - smaller demands go to the feasible machine with the fewest free
  //    GPUs (best fit), never spanning machines.
  // Replaces the contents of `granted` with the allocated GPU ids in
  // ascending order; false (and `granted` empty) if infeasible.
  bool allocate(OwnerId owner, int num_gpus, std::vector<GpuId>& granted);

  // Releases everything held by `owner`.
  void release(OwnerId owner);

  // Releases all allocations (the scheduler re-places from scratch each
  // scheduling round, per §5).
  void reset();

  // GPUs currently held by `owner`.
  std::vector<GpuId> gpus_of(OwnerId owner) const;

  // Number of distinct machines hosting `owner` (1 unless the owner spans
  // machines because it needs more than one full machine).
  int machines_used_by(OwnerId owner) const;

  // Fragmentation: number of machines that are partially (but not fully)
  // occupied. Low is good for future large jobs.
  int fragmented_machines() const;

 private:
  GpuId first_gpu(MachineId m) const {
    return m * spec_.gpus_per_machine;
  }

  ClusterSpec spec_;
  std::vector<OwnerId> gpu_owner_;   // indexed by GpuId
  std::vector<int> machine_free_;    // free GPUs per machine (0 when out)
  std::vector<bool> machine_out_;    // out of the allocatable pool
  int available_machines_ = 0;
  int free_gpus_ = 0;
};

}  // namespace muri
