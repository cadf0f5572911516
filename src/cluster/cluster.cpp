#include "cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace muri {

Cluster::Cluster(ClusterSpec spec)
    : spec_(spec),
      gpu_owner_(static_cast<size_t>(spec.num_machines) *
                     static_cast<size_t>(spec.gpus_per_machine),
                 kNoOwner),
      machine_free_(static_cast<size_t>(spec.num_machines),
                    spec.gpus_per_machine),
      machine_out_(static_cast<size_t>(spec.num_machines), false),
      available_machines_(spec.num_machines),
      free_gpus_(spec.num_machines * spec.gpus_per_machine) {
  assert(spec.num_machines > 0 && spec.gpus_per_machine > 0);
}

void Cluster::set_machine_available(MachineId m, bool available) {
  assert(m >= 0 && m < spec_.num_machines);
  const auto idx = static_cast<size_t>(m);
  if (machine_out_[idx] == !available) return;
  if (!available) {
    free_gpus_ -= machine_free_[idx];
    machine_free_[idx] = 0;
    machine_out_[idx] = true;
    --available_machines_;
  } else {
    machine_out_[idx] = false;
    ++available_machines_;
    // Restore free slots for GPUs nobody still owns (owners evicted before
    // the machine left the pool keep nothing here).
    int free = 0;
    for (int i = 0; i < spec_.gpus_per_machine; ++i) {
      if (gpu_owner_[static_cast<size_t>(first_gpu(m) + i)] == kNoOwner) {
        ++free;
      }
    }
    machine_free_[idx] = free;
    free_gpus_ += free;
  }
}

bool Cluster::machine_available(MachineId m) const {
  assert(m >= 0 && m < spec_.num_machines);
  return !machine_out_[static_cast<size_t>(m)];
}

int Cluster::available_gpus() const {
  return available_machines_ * spec_.gpus_per_machine;
}

int Cluster::free_gpus_on(MachineId m) const {
  assert(m >= 0 && m < spec_.num_machines);
  return machine_free_[static_cast<size_t>(m)];
}

MachineId Cluster::machine_of(GpuId g) const {
  assert(g >= 0 && g < total_gpus());
  return g / spec_.gpus_per_machine;
}

OwnerId Cluster::owner_of(GpuId g) const {
  assert(g >= 0 && g < total_gpus());
  return gpu_owner_[static_cast<size_t>(g)];
}

bool Cluster::can_allocate(int num_gpus) const {
  assert(num_gpus > 0);
  if (num_gpus > free_gpus_) return false;
  if (num_gpus >= spec_.gpus_per_machine) {
    // Whole free machines only.
    if (num_gpus % spec_.gpus_per_machine != 0) return false;
    int whole_free = 0;
    for (int free : machine_free_) {
      if (free == spec_.gpus_per_machine) ++whole_free;
    }
    return whole_free * spec_.gpus_per_machine >= num_gpus;
  }
  // Must fit within one machine.
  for (int free : machine_free_) {
    if (free >= num_gpus) return true;
  }
  return false;
}

bool Cluster::allocate(OwnerId owner, int num_gpus,
                       std::vector<GpuId>& granted) {
  assert(owner != kNoOwner);
  granted.clear();
  if (!can_allocate(num_gpus)) return false;

  auto take_from_machine = [&](MachineId m, int count) {
    int taken = 0;
    for (int i = 0; i < spec_.gpus_per_machine && taken < count; ++i) {
      const GpuId g = first_gpu(m) + i;
      if (gpu_owner_[static_cast<size_t>(g)] == kNoOwner) {
        gpu_owner_[static_cast<size_t>(g)] = owner;
        granted.push_back(g);
        ++taken;
      }
    }
    machine_free_[static_cast<size_t>(m)] -= taken;
    free_gpus_ -= taken;
    assert(taken == count);
  };

  if (num_gpus >= spec_.gpus_per_machine) {
    int remaining = num_gpus;
    for (MachineId m = 0; m < spec_.num_machines && remaining > 0; ++m) {
      if (machine_free_[static_cast<size_t>(m)] == spec_.gpus_per_machine) {
        take_from_machine(m, spec_.gpus_per_machine);
        remaining -= spec_.gpus_per_machine;
      }
    }
    assert(remaining == 0);
  } else {
    // Best fit: the machine with the fewest free GPUs that still fits.
    MachineId best = kInvalidMachine;
    int best_free = std::numeric_limits<int>::max();
    for (MachineId m = 0; m < spec_.num_machines; ++m) {
      const int free = machine_free_[static_cast<size_t>(m)];
      if (free >= num_gpus && free < best_free) {
        best = m;
        best_free = free;
      }
    }
    assert(best != kInvalidMachine);
    take_from_machine(best, num_gpus);
  }
  return true;
}

void Cluster::release(OwnerId owner) {
  for (GpuId g = 0; g < total_gpus(); ++g) {
    if (gpu_owner_[static_cast<size_t>(g)] == owner) {
      gpu_owner_[static_cast<size_t>(g)] = kNoOwner;
      const auto m = static_cast<size_t>(machine_of(g));
      // GPUs on out-of-pool machines stay unallocatable until recovery.
      if (!machine_out_[m]) {
        ++machine_free_[m];
        ++free_gpus_;
      }
    }
  }
}

void Cluster::reset() {
  std::fill(gpu_owner_.begin(), gpu_owner_.end(), kNoOwner);
  free_gpus_ = 0;
  for (size_t m = 0; m < machine_free_.size(); ++m) {
    machine_free_[m] = machine_out_[m] ? 0 : spec_.gpus_per_machine;
    free_gpus_ += machine_free_[m];
  }
}

std::vector<GpuId> Cluster::gpus_of(OwnerId owner) const {
  std::vector<GpuId> result;
  for (GpuId g = 0; g < total_gpus(); ++g) {
    if (gpu_owner_[static_cast<size_t>(g)] == owner) result.push_back(g);
  }
  return result;
}

int Cluster::machines_used_by(OwnerId owner) const {
  std::vector<bool> used(static_cast<size_t>(spec_.num_machines), false);
  int count = 0;
  for (GpuId g = 0; g < total_gpus(); ++g) {
    if (gpu_owner_[static_cast<size_t>(g)] == owner) {
      const auto m = static_cast<size_t>(machine_of(g));
      if (!used[m]) {
        used[m] = true;
        ++count;
      }
    }
  }
  return count;
}

int Cluster::fragmented_machines() const {
  int count = 0;
  for (int free : machine_free_) {
    if (free > 0 && free < spec_.gpus_per_machine) ++count;
  }
  return count;
}

}  // namespace muri
