// Allocation regression test for the execution engine: once warm, a full
// simulator step (progress, settle, utilization, round, metrics) allocates
// nothing outside Scheduler::schedule. The global operator new/delete are
// replaced by counting versions that forward to malloc/free, so the
// sanitizers still see every block; that replacement is why this test is
// a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/simulator.h"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n == 0 ? 1 : n) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace muri {
namespace {

long allocations() { return g_allocations.load(std::memory_order_relaxed); }

// Returns the same plan every round and counts the allocations made inside
// schedule(), so the test can charge the rest to the engine.
class FixedPlanScheduler : public Scheduler {
 public:
  explicit FixedPlanScheduler(std::vector<PlannedGroup> plan)
      : plan_(std::move(plan)) {}
  std::string name() const override { return "fixed"; }
  std::vector<PlannedGroup> schedule(const std::vector<JobView>& /*queue*/,
                                     const SchedulerContext& /*ctx*/) override {
    const long before = allocations();
    std::vector<PlannedGroup> plan = plan_;
    inside_ += allocations() - before;
    return plan;
  }
  long inside() const { return inside_; }

 private:
  std::vector<PlannedGroup> plan_;
  long inside_ = 0;
};

Job long_job(JobId id, ModelKind model, int gpus) {
  Job j;
  j.id = id;
  j.model = model;
  j.num_gpus = gpus;
  j.profile = model_profile(model, gpus);
  j.iterations = 1'000'000'000;
  return j;
}

PlannedGroup group(std::vector<JobId> members, int gpus) {
  PlannedGroup g;
  g.members = std::move(members);
  g.num_gpus = gpus;
  return g;
}

TEST(EngineAllocations, WarmStepAllocatesNothingOutsideTheScheduler) {
  // Exclusive groups only: one solo job, one 2-GPU job and two jobs that
  // time-share one GPU. Interleaved and uncoordinated groups are left
  // out, because plan_interleave and the fluid rate solver still return
  // fresh vectors.
  FixedPlanScheduler scheduler(
      {group({1}, 2), group({0}, 1), group({3, 2}, 1)});
  SimOptions options;
  options.cluster.num_machines = 2;
  options.cluster.gpus_per_machine = 4;
  options.restart_penalty = 5;
  ExecutionEngine engine(scheduler, options, 0);
  engine.submit(long_job(0, ModelKind::kResNet18, 1));
  engine.submit(long_job(1, ModelKind::kVgg16, 2));
  engine.submit(long_job(2, ModelKind::kShuffleNet, 1));
  engine.submit(long_job(3, ModelKind::kA2c, 1));

  const auto step = [&engine] {
    engine.progress_to(engine.now() + 60);
    engine.settle();
    engine.refresh_utilization();
    engine.run_round();
    engine.observe_metrics();
  };
  step();  // warm: the first placement sizes every buffer
  ASSERT_EQ(engine.running_jobs(), 4);

  const long before = allocations();
  const long before_inside = scheduler.inside();
  for (int i = 0; i < 20; ++i) step();
  const long engine_allocations =
      (allocations() - before) - (scheduler.inside() - before_inside);

  EXPECT_EQ(engine_allocations, 0);
  EXPECT_GT(scheduler.inside() - before_inside, 0);
  EXPECT_EQ(engine.running_jobs(), 4);
  EXPECT_EQ(engine.rounds_run(), 21);
}

}  // namespace
}  // namespace muri
