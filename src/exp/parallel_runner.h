// ParallelRunner: fan N independent simulation jobs across a
// WorkStealingExecutor and collect their results in submission order.
//
// The contract each job must satisfy (see DESIGN.md §exp):
//   * self-contained — it builds its own Testbed (or corpus slice, or any
//     other world) from its inputs and touches no state shared with other
//     jobs; everything it needs lives in its closure, everything it
//     produces is in its return value;
//   * deterministic — the result is a pure function of the job's inputs
//     (seed, scenario, options), never of wall time, thread identity, or
//     interleaving.
// Under that contract run() is observationally identical to run_serial():
// same jobs, same per-slot results, bit for bit — only wall time changes.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "exp/work_stealing.h"

namespace eandroid::exp {

struct RunnerOptions {
  /// Worker count; 0 means std::thread::hardware_concurrency().
  unsigned threads = 0;
};

template <typename Result>
class ParallelRunner {
 public:
  using Job = std::function<Result()>;

  explicit ParallelRunner(RunnerOptions options = {}) : options_(options) {}

  /// Runs every job on a fresh executor, one submission per job; results
  /// come back indexed exactly like `jobs`. If jobs throw, the
  /// lowest-index exception is rethrown — but only after every job has
  /// finished, so no job is ever abandoned mid-simulation.
  std::vector<Result> run(std::vector<Job> jobs) {
    Batch batch{std::move(jobs), {}, {}};
    batch.results.resize(batch.jobs.size());
    batch.errors.resize(batch.jobs.size());
    {
      WorkStealingExecutor executor(options_.threads);
      for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
        // {Batch*, index} fits std::function's small-buffer storage.
        executor.submit([&batch, i] { batch.run(i); });
      }
      executor.wait_idle();
    }
    for (const std::exception_ptr& error : batch.errors) {
      if (error) std::rethrow_exception(error);
    }
    std::vector<Result> results;
    results.reserve(batch.results.size());
    for (std::optional<Result>& result : batch.results) {
      results.push_back(std::move(*result));
    }
    return results;
  }

  /// The reference path: same jobs, same order, caller's thread. Benches
  /// compare run() against this to assert bitwise-identical results.
  static std::vector<Result> run_serial(std::vector<Job> jobs) {
    std::vector<Result> results;
    results.reserve(jobs.size());
    for (auto& job : jobs) results.push_back(job());
    return results;
  }

 private:
  /// Per-job result and exception slots; job i writes only slot i.
  struct Batch {
    std::vector<Job> jobs;
    std::vector<std::optional<Result>> results;
    std::vector<std::exception_ptr> errors;

    void run(std::size_t i) {
      try {
        results[i].emplace(jobs[i]());
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  RunnerOptions options_;
};

/// Fans `job(0) .. job(n-1)` out across the executor; the common "one job
/// per seed / per scenario index" shape.
template <typename Result>
std::vector<Result> run_indexed(std::size_t n,
                                std::function<Result(std::size_t)> job,
                                RunnerOptions options = {}) {
  std::vector<typename ParallelRunner<Result>::Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back([job, i] { return job(i); });
  }
  return ParallelRunner<Result>(options).run(std::move(jobs));
}

}  // namespace eandroid::exp
