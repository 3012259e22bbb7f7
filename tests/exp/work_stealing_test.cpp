// WorkStealingExecutor contracts, at TSan-friendly sizes:
//   * every submitted task runs exactly once — across bulk submission,
//     worker self-submission (requeue chains), and randomized stealing;
//   * wait_idle() covers tasks submitted BY tasks, transitively, and
//     rethrows the first task exception after everything else finishes;
//   * the executor is reusable across dispatch waves (park/unpark), and a
//     task of one executor can drive another;
//   * the raw TaskDeque loses nothing under a concurrent owner + thieves.
//
// This file rides in exp_tests under the `tsan` label: a ThreadSanitizer
// build executes the same interleavings with race detection on, which is
// the real point — the deque's conservative orderings must be clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/work_stealing.h"

namespace eandroid::exp {
namespace {

TEST(WorkStealingExecutorTest, EveryTaskRunsExactlyOnce) {
  constexpr int kTasks = 2000;
  WorkStealingExecutor executor(4);
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) r.store(0);
  for (int i = 0; i < kTasks; ++i) {
    executor.submit([&runs, i] { runs[i].fetch_add(1); });
  }
  executor.wait_idle();
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(executor.stats().executed, static_cast<std::uint64_t>(kTasks));
}

TEST(WorkStealingExecutorTest, BulkSubmitRunsTheWholeBatch) {
  constexpr int kTasks = 1000;
  WorkStealingExecutor executor(3);
  std::atomic<int> sum{0};
  std::vector<WorkStealingExecutor::Task> batch;
  batch.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    batch.push_back([&sum, i] { sum.fetch_add(i); });
  }
  executor.submit_bulk(std::move(batch));
  executor.wait_idle();
  EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
}

TEST(WorkStealingExecutorTest, RequeueChainsCompleteBeforeWaitIdle) {
  // The fleet's shape: a task re-submits itself from the worker thread
  // (own-deque push) until its chain is done. wait_idle must count the
  // transitively submitted work.
  constexpr int kChains = 64;
  constexpr int kLinks = 50;
  WorkStealingExecutor executor(4);
  std::vector<std::atomic<int>> progress(kChains);
  for (auto& p : progress) p.store(0);
  std::function<void(int)> link = [&](int chain) {
    if (progress[chain].fetch_add(1) + 1 < kLinks) {
      executor.submit([&link, chain] { link(chain); });
    }
  };
  for (int c = 0; c < kChains; ++c) {
    executor.submit([&link, c] { link(c); });
  }
  executor.wait_idle();
  for (int c = 0; c < kChains; ++c) {
    ASSERT_EQ(progress[c].load(), kLinks) << "chain " << c;
  }
}

TEST(WorkStealingExecutorTest, FirstExceptionIsRethrownAfterAllTasksRun) {
  WorkStealingExecutor executor(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    executor.submit([&ran, i] {
      if (i == 37) throw std::runtime_error("task 37 failed");
      ran.fetch_add(1);
    });
  }
  EXPECT_THROW(executor.wait_idle(), std::runtime_error);
  // Every non-throwing task still ran — a failure never abandons the
  // rest of the dispatch wave.
  EXPECT_EQ(ran.load(), 99);
  // The error was consumed; the executor stays usable.
  executor.submit([&ran] { ran.fetch_add(1); });
  executor.wait_idle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkStealingExecutorTest, ReusableAcrossDispatchWaves) {
  // Waves separated by idle gaps exercise park/unpark: workers sleep
  // between waves and every wave still completes fully.
  WorkStealingExecutor executor(3);
  std::atomic<int> total{0};
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 50; ++i) {
      executor.submit([&total] { total.fetch_add(1); });
    }
    executor.wait_idle();
    ASSERT_EQ(total.load(), (wave + 1) * 50);
  }
}

TEST(WorkStealingExecutorTest, ATaskCanDriveAnotherExecutor) {
  // A ParallelRunner job that runs a Fleet: tasks of one executor act as
  // driver threads of another — bulk submission, self-requeue chains on
  // the inner workers, and wait_idle, all from an outer worker thread.
  WorkStealingExecutor outer(2);
  std::atomic<int> total{0};
  for (int job = 0; job < 4; ++job) {
    outer.submit([&total] {
      WorkStealingExecutor inner(2);
      std::function<void(int)> link = [&](int left) {
        total.fetch_add(1);
        if (left > 1) inner.submit([&link, left] { link(left - 1); });
      };
      std::vector<WorkStealingExecutor::Task> chains;
      for (int c = 0; c < 8; ++c) chains.push_back([&link] { link(5); });
      inner.submit_bulk(std::move(chains));
      inner.wait_idle();
    });
  }
  outer.wait_idle();
  EXPECT_EQ(total.load(), 4 * 8 * 5);
}

TEST(TaskDequeTest, OwnerAndThievesPartitionTheTasks) {
  // One owner pushes/pops, three thieves steal concurrently; every
  // pushed value is consumed exactly once across the four threads.
  constexpr int kValues = 20000;
  TaskDeque deque(8);  // small initial ring: forces grow() under load
  std::vector<int> values(kValues);
  std::iota(values.begin(), values.end(), 0);
  std::vector<std::atomic<int>> seen(kValues);
  for (auto& s : seen) s.store(0);
  std::atomic<bool> done{false};

  auto thief = [&] {
    while (!done.load()) {
      if (void* task = deque.steal()) {
        seen[*static_cast<int*>(task)].fetch_add(1);
      }
    }
    // Drain whatever is left after the owner stops.
    while (void* task = deque.steal()) {
      seen[*static_cast<int*>(task)].fetch_add(1);
    }
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) thieves.emplace_back(thief);

  for (int i = 0; i < kValues; ++i) {
    deque.push(&values[i]);
    if (i % 3 == 0) {
      if (void* task = deque.pop()) {
        seen[*static_cast<int*>(task)].fetch_add(1);
      }
    }
  }
  while (void* task = deque.pop()) {
    seen[*static_cast<int*>(task)].fetch_add(1);
  }
  done.store(true);
  for (auto& t : thieves) t.join();

  for (int i = 0; i < kValues; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "value " << i;
  }
}

}  // namespace
}  // namespace eandroid::exp
