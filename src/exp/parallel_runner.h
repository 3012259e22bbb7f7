// ParallelRunner: fan N independent simulation jobs across a WorkerPool
// and collect their results in submission order.
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
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "exp/worker_pool.h"

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

  /// Runs every job on a fresh pool, one index per job; results come
  /// back indexed exactly like `jobs`. If jobs throw, the lowest-index
  /// exception is rethrown — but only after every job has finished, so no
  /// job is ever abandoned mid-simulation.
  std::vector<Result> run(std::vector<Job> jobs) {
    // Job i writes only slot i.
    std::vector<std::optional<Result>> slots(jobs.size());
    WorkerPool(options_.threads).run(jobs.size(), [&](std::size_t i) {
      slots[i].emplace(jobs[i]());
    });
    std::vector<Result> results;
    results.reserve(slots.size());
    for (std::optional<Result>& result : slots) {
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
  RunnerOptions options_;
};

/// Fans `job(0) .. job(n-1)` out across a pool; the common "one job
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
