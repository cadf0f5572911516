// ThreadPool contract: exact-once execution, deterministic partitioning,
// exception propagation, and reuse across many loops — the properties the
// parallel scheduling round builds on.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/threadpool.h"

namespace muri {
namespace {

TEST(ThreadPoolPartition, CoversRangeExactlyOnceAndContiguously) {
  for (std::int64_t begin : {0, 3, -5}) {
    for (std::int64_t n : {1, 2, 7, 64, 1000}) {
      for (int chunks : {1, 2, 3, 8, 33}) {
        const auto parts = ThreadPool::partition(begin, begin + n, chunks);
        ASSERT_FALSE(parts.empty());
        EXPECT_LE(static_cast<std::int64_t>(parts.size()), n);
        EXPECT_LE(static_cast<int>(parts.size()), chunks);
        std::int64_t at = begin;
        for (const auto& [lo, hi] : parts) {
          EXPECT_EQ(lo, at);  // contiguous, in order, no gaps
          EXPECT_LT(lo, hi);  // never empty
          at = hi;
        }
        EXPECT_EQ(at, begin + n);
      }
    }
  }
}

TEST(ThreadPoolPartition, IsAPureFunctionOfItsArguments) {
  const auto a = ThreadPool::partition(0, 1000, 16);
  const auto b = ThreadPool::partition(0, 1000, 16);
  EXPECT_EQ(a, b);
  // Sizes differ by at most one and larger chunks come first.
  for (size_t i = 1; i < a.size(); ++i) {
    const auto prev = a[i - 1].second - a[i - 1].first;
    const auto cur = a[i].second - a[i].first;
    EXPECT_GE(prev, cur);
    EXPECT_LE(prev - cur, 1);
  }
}

TEST(ThreadPoolPartition, EmptyRangeAndBadChunkCounts) {
  EXPECT_TRUE(ThreadPool::partition(5, 5, 4).empty());
  EXPECT_TRUE(ThreadPool::partition(7, 3, 4).empty());
  EXPECT_TRUE(ThreadPool::partition(0, 10, 0).empty());
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (int workers : {0, 1, 3, 7}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    EXPECT_EQ(pool.concurrency(), workers + 1);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(0, static_cast<std::int64_t>(hits.size()),
                      [&](std::int64_t i) {
                        hits[static_cast<size_t>(i)].fetch_add(1);
                      });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, IndexOwnedSlotsMatchSerialBitForBit) {
  // The determinism contract the scheduler relies on: a loop whose bodies
  // write only to their own slot produces identical output for any pool.
  const int n = 512;
  std::vector<double> serial(n), threaded(n);
  const auto body = [](std::int64_t i) {
    double acc = 0;
    for (int k = 1; k <= 32; ++k) acc += 1.0 / (static_cast<double>(i) + k);
    return acc;
  };
  {
    ThreadPool pool(0);
    pool.parallel_for(0, n, [&](std::int64_t i) {
      serial[static_cast<size_t>(i)] = body(i);
    });
  }
  for (int workers : {1, 3, 7}) {
    ThreadPool pool(workers);
    pool.parallel_for(0, n, [&](std::int64_t i) {
      threaded[static_cast<size_t>(i)] = body(i);
    });
    EXPECT_EQ(serial, threaded) << workers << " workers";
  }
}

TEST(ThreadPool, PropagatesTheFirstExceptionAndSurvives) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::int64_t i) {
                          ran.fetch_add(1);
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  // The pool is not poisoned: subsequent loops run to completion.
  std::atomic<int> after{0};
  pool.parallel_for(0, 50, [&](std::int64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50);
}

TEST(ThreadPool, ManyConsecutiveLoopsDoNotLeakOrWedge) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  for (int rep = 0; rep < 200; ++rep) {
    pool.parallel_for(0, 37, [&](std::int64_t i) { total.fetch_add(i); });
  }
  EXPECT_EQ(total.load(), 200 * (36 * 37 / 2));
}

}  // namespace
}  // namespace muri
