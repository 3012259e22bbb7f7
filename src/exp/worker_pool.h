// WorkerPool: the thread substrate of the fleet and of
// exp::ParallelRunner. A fixed set of threads runs one batch at a time:
// run(n, fn) calls fn(0) .. fn(n-1), each index claimed once from one
// shared counter, and returns when every call is done.
//
// The threads start lazily: the first non-empty run() publishes its
// batch and then starts min(threads, n) of them, so a 4-device fleet on
// a 64-core machine starts 4 threads. Later calls wake the same threads;
// between batches they sleep on a condition variable and burn no CPU.
//
// Determinism contract: each index runs exactly once, on one thread,
// before run() returns — nothing else. Callers that need reproducible
// results make the calls independent: a fleet's device calls touch only
// their own device, so any interleaving yields bit-identical digests.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eandroid::exp {

class WorkerPool {
 public:
  /// At most `threads` threads; 0 means hardware_concurrency (min 1).
  /// Starts none until the first run().
  explicit WorkerPool(unsigned threads = 0);

  /// Joins the threads.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(i) once for every i in [0, n) on the pool's threads and
  /// returns when every call has finished. If calls threw, rethrows the
  /// lowest index's exception, after all the others ran. One driver
  /// thread at a time; calling it from one of this pool's own threads is
  /// a checked error (it would wait on itself). A call of another pool
  /// may drive this one: a runner job that runs a fleet does.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void work();

  const unsigned max_threads_;
  std::mutex mu_;
  std::condition_variable wake_;  // a new batch, or stop
  std::condition_variable done_;  // every thread left the batch
  // The current batch, guarded by mu_. Each started thread takes part in
  // every batch, so run() returns once `busy_` threads have drained it.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t size_ = 0;
  std::size_t next_ = 0;
  std::size_t busy_ = 0;
  std::uint64_t batch_ = 0;
  std::exception_ptr error_;
  std::size_t error_index_ = 0;
  bool stop_ = false;
  // Declared last: the threads use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace eandroid::exp
