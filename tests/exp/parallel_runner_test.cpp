// ParallelRunner contracts: results in submission order, no job
// abandoned when another throws (the lowest-index exception wins), and
// the parallel path equal to the serial reference.
#include "exp/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace eandroid::exp {
namespace {

TEST(ParallelRunnerTest, CollectsResultsInSubmissionOrder) {
  // Jobs finish in scrambled order (later jobs are cheaper), but the
  // result vector must follow submission order.
  const std::vector<int> results = run_indexed<int>(
      32,
      [](std::size_t i) {
        // Busy-work inversely proportional to the index.
        volatile std::uint64_t sink = 0;
        for (std::size_t k = 0; k < (32 - i) * 10000; ++k) {
          sink = sink + k;
        }
        return static_cast<int>(i * i);
      },
      {.threads = 4});
  ASSERT_EQ(results.size(), 32u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i)) << "slot " << i;
  }
}

TEST(ParallelRunnerTest, RethrowsJobExceptionAfterAllJobsFinish) {
  std::atomic<int> finished{0};
  ParallelRunner<int> runner({.threads = 2});
  std::vector<ParallelRunner<int>::Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([i, &finished]() -> int {
      if (i == 3) throw std::runtime_error("seed 3 diverged");
      ++finished;
      return i;
    });
  }
  EXPECT_THROW(runner.run(std::move(jobs)), std::runtime_error);
  // No job was abandoned because of the failing one.
  EXPECT_EQ(finished.load(), 7);
}

TEST(ParallelRunnerTest, RethrowsLowestIndexError) {
  std::vector<ParallelRunner<int>::Job> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back([i]() -> int {
      if (i == 11 || i == 50) throw std::runtime_error(std::to_string(i));
      return i;
    });
  }
  try {
    ParallelRunner<int>({.threads = 3}).run(std::move(jobs));
    FAIL() << "expected a job exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "11");
  }
}

TEST(ParallelRunnerTest, SerialPathMatchesParallelPath) {
  const auto square = [](std::size_t i) { return static_cast<int>(i * 3); };
  std::vector<ParallelRunner<int>::Job> jobs;
  for (std::size_t i = 0; i < 16; ++i) jobs.push_back([=] { return square(i); });
  const auto serial = ParallelRunner<int>::run_serial(std::move(jobs));
  const auto parallel =
      run_indexed<int>(16, square, {.threads = 4});
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace eandroid::exp
