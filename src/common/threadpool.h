// Fixed-worker thread pool with a deterministic parallel_for.
//
// Built for the scheduler's round hot path, which fans out over GPU
// buckets and then over (bucket, component) work items: each index range's
// iterations write to disjoint, index-owned slots, so the *assignment* of
// chunks to threads may be racy while the *output* stays bit-identical to
// a serial run. The pool therefore promises only:
//
//  - every index in [begin, end) is executed exactly once;
//  - chunk boundaries are a pure function of (range, max_chunks) — see
//    partition() — never of thread timing;
//  - parallel_for returns only after every index has completed, and
//    rethrows the first exception a body threw.
//
// Parallelism is one level deep: a loop body must not call parallel_for
// on the same pool.
//
// The calling thread participates in the loop, so a pool with W workers
// gives W+1-way concurrency. A pool with 0 workers degenerates to a plain
// serial loop behind the same API.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace muri {

class ThreadPool {
 public:
  // Spawns `workers` threads immediately; 0 means "no threads, run
  // everything inline on the caller".
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const noexcept { return static_cast<int>(threads_.size()); }

  // Worker threads plus the calling thread.
  int concurrency() const noexcept { return workers() + 1; }

  // Runs body(i) for every i in [begin, end), blocking until all indices
  // have executed. Iterations must only write to locations owned by their
  // index (or otherwise synchronize): chunks are claimed dynamically, so
  // which thread runs an index is unspecified. The first exception thrown
  // by a body is rethrown here after the range drains; remaining chunks
  // are skipped once a failure is recorded.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t)>& body);

  // Deterministic contiguous split of [begin, end) into at most max_chunks
  // chunks whose sizes differ by at most one, larger chunks first. Pure
  // function of its arguments — the unit of work assignment parallel_for
  // uses, exposed for tests.
  static std::vector<std::pair<std::int64_t, std::int64_t>> partition(
      std::int64_t begin, std::int64_t end, int max_chunks);

 private:
  void worker_loop();
  void enqueue(std::function<void()> task);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

}  // namespace muri
