#include "common/threadpool.h"

#include <atomic>
#include <cassert>
#include <exception>
#include <memory>

namespace muri {

namespace {

// Shared state of one parallel_for call. Enqueued runners hold it via
// shared_ptr: a runner that wakes up after the loop already drained (and
// the caller returned) must still find its chunk list alive.
struct LoopState {
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  std::function<void(std::int64_t)> body;
  std::atomic<size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable all_done;
  size_t chunks_done = 0;
  std::exception_ptr error;

  // Claims and runs chunks until none remain. Safe to call from any number
  // of threads; every chunk executes exactly once.
  void run() {
    for (;;) {
      const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks.size()) return;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          for (std::int64_t i = chunks[c].first; i < chunks[c].second; ++i) {
            body(i);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (++chunks_done == chunks.size()) all_done.notify_all();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(int workers) {
  assert(workers >= 0);
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

std::vector<std::pair<std::int64_t, std::int64_t>> ThreadPool::partition(
    std::int64_t begin, std::int64_t end, int max_chunks) {
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  if (end <= begin || max_chunks < 1) return chunks;
  const std::int64_t n = end - begin;
  const std::int64_t count = std::min<std::int64_t>(n, max_chunks);
  const std::int64_t base = n / count;
  const std::int64_t extra = n % count;  // first `extra` chunks get +1
  chunks.reserve(static_cast<size_t>(count));
  std::int64_t at = begin;
  for (std::int64_t c = 0; c < count; ++c) {
    const std::int64_t size = base + (c < extra ? 1 : 0);
    chunks.emplace_back(at, at + size);
    at += size;
  }
  assert(at == end);
  return chunks;
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              const std::function<void(std::int64_t)>& body) {
  if (end <= begin) return;
  // Serial fast paths: no workers or a one-element range.
  if (workers() == 0 || end - begin == 1) {
    for (std::int64_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto state = std::make_shared<LoopState>();
  // Over-split relative to the thread count so a slow chunk (one expensive
  // bucket or component) rebalances onto idle threads; boundaries stay a
  // pure function of the range.
  state->chunks = partition(begin, end, concurrency() * 4);
  state->body = body;

  const size_t runners =
      std::min(static_cast<size_t>(workers()), state->chunks.size() - 1);
  for (size_t i = 0; i < runners; ++i) {
    enqueue([state] { state->run(); });
  }
  state->run();  // the caller works too

  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock,
                       [&] { return state->chunks_done == state->chunks.size(); });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace muri
