// WorkerPool contracts, at TSan-friendly sizes:
//   * every index runs exactly once, and a pool never starts more threads
//     than its first batch has indices;
//   * one pool runs batch after batch;
//   * run() rethrows the lowest throwing index's exception after every
//     other call ran, and the pool stays usable;
//   * a call of one pool can drive another (a runner job that runs a
//     fleet), while run() from the pool's own thread is a checked error.
//
// This file rides in exp_tests under the `tsan` label: a ThreadSanitizer
// build executes the same interleavings with race detection on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/worker_pool.h"
#include "sim/check.h"

namespace eandroid::exp {
namespace {

TEST(WorkerPoolTest, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kCalls = 2000;
  WorkerPool pool(4);
  std::vector<std::atomic<int>> runs(kCalls);
  for (auto& r : runs) r.store(0);
  pool.run(kCalls, [&runs](std::size_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCalls; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, StartsNoMoreThreadsThanTheFirstBatchHasIndices) {
  WorkerPool pool(8);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::vector<int> runs(3, 0);
  pool.run(3, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
    ++runs[i];
  });
  EXPECT_EQ(runs, std::vector<int>(3, 1));
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 3u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

TEST(WorkerPoolTest, EmptyBatchRunsNothing) {
  WorkerPool pool(2);
  bool ran = false;
  pool.run(0, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(WorkerPoolTest, OnePoolRunsManyBatches) {
  // The threads sleep between batches and wake for the next one.
  WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.run(50, [&total](std::size_t) { total.fetch_add(1); });
    ASSERT_EQ(total.load(), (batch + 1) * 50);
  }
}

TEST(WorkerPoolTest, RethrowsTheLowestIndexErrorAfterEveryCallRan) {
  WorkerPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.run(100, [&ran](std::size_t i) {
      // 37 throws last in time: the lowest index wins, not the first.
      if (i == 37) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (i == 37 || i == 80) {
        throw std::runtime_error("index " + std::to_string(i));
      }
      ran.fetch_add(1);
    });
    ADD_FAILURE() << "run() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 37");
  }
  // A failure never abandons the rest of the batch.
  EXPECT_EQ(ran.load(), 98);
  // The error was consumed; the pool runs the next batch.
  pool.run(10, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 108);
}

TEST(WorkerPoolTest, ACallCanDriveItsOwnPool) {
  // A ParallelRunner job that runs a Fleet: each call of the outer pool
  // is the driver thread of an inner pool.
  WorkerPool outer(2);
  std::atomic<int> total{0};
  outer.run(4, [&total](std::size_t) {
    WorkerPool inner(2);
    for (int batch = 0; batch < 3; ++batch) {
      inner.run(8, [&total](std::size_t) { total.fetch_add(1); });
    }
  });
  EXPECT_EQ(total.load(), 4 * 3 * 8);
}

TEST(WorkerPoolTest, RunFromThePoolsOwnThreadIsACheckedError) {
  WorkerPool pool(2);
  bool inner_ran = false;
  EXPECT_THROW(pool.run(1,
                        [&](std::size_t) {
                          pool.run(1, [&](std::size_t) { inner_ran = true; });
                        }),
               sim::CheckFailure);
  EXPECT_FALSE(inner_ran);
}

}  // namespace
}  // namespace eandroid::exp
