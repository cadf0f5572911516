#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace muri {
namespace {

ClusterSpec spec(int machines, int gpus) {
  ClusterSpec s;
  s.num_machines = machines;
  s.gpus_per_machine = gpus;
  return s;
}

TEST(Cluster, InitialState) {
  Cluster c(spec(8, 8));
  EXPECT_EQ(c.total_gpus(), 64);
  EXPECT_EQ(c.free_gpus(), 64);
  EXPECT_EQ(c.fragmented_machines(), 0);
  for (GpuId g = 0; g < 64; ++g) {
    EXPECT_EQ(c.owner_of(g), kNoOwner);
  }
}

TEST(Cluster, MachineOfMapsContiguously) {
  Cluster c(spec(4, 8));
  EXPECT_EQ(c.machine_of(0), 0);
  EXPECT_EQ(c.machine_of(7), 0);
  EXPECT_EQ(c.machine_of(8), 1);
  EXPECT_EQ(c.machine_of(31), 3);
}

TEST(Cluster, SmallAllocationStaysOnOneMachine) {
  Cluster c(spec(4, 8));
  std::vector<GpuId> gpus;
  ASSERT_TRUE(c.allocate(1, 4, gpus));
  ASSERT_EQ(gpus.size(), 4u);
  const MachineId m = c.machine_of(gpus[0]);
  for (GpuId g : gpus) {
    EXPECT_EQ(c.machine_of(g), m);
    EXPECT_EQ(c.owner_of(g), 1);
  }
  EXPECT_EQ(c.free_gpus(), 28);
  EXPECT_EQ(c.machines_used_by(1), 1);
}

TEST(Cluster, BestFitPrefersFullestFeasibleMachine) {
  Cluster c(spec(3, 8));
  std::vector<GpuId> gpus;
  c.allocate(1, 6, gpus);  // machine 0 now has 2 free
  c.allocate(2, 4, gpus);  // machine 1 now has 4 free
  // A 2-GPU request should land on machine 0 (tightest fit).
  ASSERT_TRUE(c.allocate(3, 2, gpus));
  ASSERT_EQ(gpus.size(), 2u);
  EXPECT_EQ(c.machine_of(gpus[0]), 0);
}

TEST(Cluster, WholeMachineAllocationTakesFreeMachines) {
  Cluster c(spec(4, 8));
  std::vector<GpuId> gpus;
  c.allocate(1, 3, gpus);  // fragment machine 0
  ASSERT_TRUE(c.allocate(2, 16, gpus));
  ASSERT_EQ(gpus.size(), 16u);
  for (GpuId g : gpus) {
    EXPECT_NE(c.machine_of(g), 0);  // machine 0 was not whole-free
  }
  EXPECT_EQ(c.machines_used_by(2), 2);
}

TEST(Cluster, BestFitConsolidatesSmallAllocations) {
  Cluster c(spec(2, 8));
  std::vector<GpuId> gpus;
  c.allocate(1, 1, gpus);
  c.allocate(2, 1, gpus);  // best fit stacks this on machine 0 too
  EXPECT_EQ(c.free_gpus_on(0), 6);
  EXPECT_EQ(c.free_gpus_on(1), 8);
  // Machine 1 stays whole, so an 8-GPU job still fits.
  EXPECT_TRUE(c.can_allocate(8));
}

TEST(Cluster, CannotAllocateWhenFragmented) {
  Cluster c(spec(2, 8));
  std::vector<GpuId> gpus;
  c.allocate(1, 5, gpus);  // machine 0: 3 free
  c.allocate(2, 5, gpus);  // cannot fit machine 0 -> machine 1: 3 free
  // 6 GPUs free but no whole machine: an 8-GPU job cannot be placed.
  EXPECT_FALSE(c.can_allocate(8));
  EXPECT_TRUE(c.can_allocate(3));
  EXPECT_FALSE(c.can_allocate(4));
  EXPECT_FALSE(c.allocate(3, 8, gpus));
  EXPECT_TRUE(gpus.empty());
}

TEST(Cluster, NonMachineMultipleOfLargeRequestRejected) {
  Cluster c(spec(4, 8));
  EXPECT_FALSE(c.can_allocate(12));  // >8 must be a multiple of 8
  EXPECT_TRUE(c.can_allocate(8));
  EXPECT_TRUE(c.can_allocate(32));
  EXPECT_FALSE(c.can_allocate(40));  // more than total
}

TEST(Cluster, ReleaseReturnsCapacity) {
  Cluster c(spec(2, 8));
  std::vector<GpuId> gpus;
  c.allocate(1, 8, gpus);
  c.allocate(2, 8, gpus);
  EXPECT_EQ(c.free_gpus(), 0);
  c.release(1);
  EXPECT_EQ(c.free_gpus(), 8);
  EXPECT_TRUE(c.can_allocate(8));
  EXPECT_EQ(c.gpus_of(1).size(), 0u);
  EXPECT_EQ(c.gpus_of(2).size(), 8u);
}

TEST(Cluster, ResetClearsEverything) {
  Cluster c(spec(2, 4));
  std::vector<GpuId> gpus;
  c.allocate(1, 3, gpus);
  c.allocate(2, 4, gpus);
  c.reset();
  EXPECT_EQ(c.free_gpus(), 8);
  EXPECT_EQ(c.fragmented_machines(), 0);
  EXPECT_TRUE(c.gpus_of(1).empty());
}

TEST(Cluster, FragmentationCounting) {
  Cluster c(spec(3, 8));
  EXPECT_EQ(c.fragmented_machines(), 0);
  std::vector<GpuId> gpus;
  c.allocate(1, 3, gpus);
  EXPECT_EQ(c.fragmented_machines(), 1);
  c.allocate(2, 8, gpus);
  EXPECT_EQ(c.fragmented_machines(), 1);  // full machine isn't "fragmented"
  c.allocate(3, 5, gpus);  // best fit fills machine 0 exactly
  EXPECT_EQ(c.fragmented_machines(), 0);
}

TEST(Cluster, ExhaustiveFillAndDrain) {
  Cluster c(spec(8, 8));
  std::vector<GpuId> gpus;
  for (OwnerId o = 0; o < 64; ++o) {
    ASSERT_TRUE(c.allocate(o + 1, 1, gpus));
    ASSERT_EQ(gpus.size(), 1u);
  }
  EXPECT_EQ(c.free_gpus(), 0);
  EXPECT_FALSE(c.can_allocate(1));
  for (OwnerId o = 0; o < 64; ++o) c.release(o + 1);
  EXPECT_EQ(c.free_gpus(), 64);
}

}  // namespace
}  // namespace muri
