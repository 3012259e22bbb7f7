// WorkStealingExecutor: the thread substrate of the fleet scheduler and
// of exp::ParallelRunner. It is built for tens of thousands of small
// per-device advance tasks, and serves a handful of whole-simulation
// jobs just as well:
//
//   * each worker owns a chase-lev deque (Chase & Lev, SPAA'05, with the
//     C11-model orderings of Lê et al., PPoPP'13): the owner pushes and
//     pops at the bottom lock-free, thieves CAS tasks off the top. A
//     task submitted from a worker thread (e.g. a device re-queueing
//     itself after an advance grain) lands on that worker's own deque —
//     the LIFO hot path — and stays stealable by everyone else.
//   * driver-side submissions go to a shared injection queue. Bulk
//     submission appends the whole batch under ONE lock, and an idle
//     worker refills by moving up to HALF of the injection queue into
//     its own deque in one acquisition (steal-half), so a thousand
//     device tasks cost a handful of lock operations, not a thousand.
//   * workers that find every deque empty park on a condition variable
//     and are unparked by the next submission; an idle executor burns no
//     CPU between fleet dispatch waves.
//
// The memory orderings on the deque are deliberately conservative
// (seq_cst on top/bottom, acquire/release on the slots) rather than the
// weakest published set: tasks here are whole device-advance segments —
// milliseconds of simulation — so deque traffic is nowhere near the
// bottleneck, and the stronger orderings keep the structure obviously
// correct under ThreadSanitizer, which does not model standalone fences.
//
// Determinism contract: the executor guarantees each submitted task runs
// exactly once, on some worker, at some time before wait_idle() returns —
// nothing else. Callers that need reproducible RESULTS (the fleet) must
// make tasks independent: fleet device tasks touch only their own device,
// so any interleaving yields bit-identical digests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace eandroid::exp {

/// Single-owner, multi-thief deque of task pointers (chase-lev). Exposed
/// for the stress tests; fleet code talks to the executor, not to this.
class TaskDeque {
 public:
  using Slot = void*;

  explicit TaskDeque(std::size_t initial_capacity = 64);
  ~TaskDeque();

  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  /// Owner only: push one task at the bottom. Grows the ring on demand
  /// (old rings are retired, not freed, until destruction — a thief may
  /// still be reading one).
  void push(Slot task);

  /// Owner only: pop the most recently pushed task, or nullptr.
  Slot pop();

  /// Any thread: steal the OLDEST task, or nullptr if the deque is empty
  /// or the race was lost. Losing thieves simply try another victim.
  Slot steal();

  /// Racy size estimate; only used for victim selection heuristics.
  [[nodiscard]] std::size_t approx_size() const;

 private:
  struct Ring {
    explicit Ring(std::size_t capacity);
    std::int64_t mask;
    std::unique_ptr<std::atomic<Slot>[]> slots;
    Ring* retired_next = nullptr;
  };

  Ring* grow(Ring* ring, std::int64_t top, std::int64_t bottom);

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_;
  Ring* retired_ = nullptr;  // owner-only chain of outgrown rings
};

class WorkStealingExecutor {
 public:
  using Task = std::function<void()>;

  struct Stats {
    std::uint64_t executed = 0;       ///< tasks run to completion
    std::uint64_t steals = 0;         ///< tasks taken from another deque
    std::uint64_t injection_refills = 0;  ///< steal-half batches taken
    std::uint64_t parks = 0;          ///< times a worker went to sleep
  };

  /// Spawns `workers` threads; 0 means hardware_concurrency (min 1).
  explicit WorkStealingExecutor(unsigned workers = 0);

  /// Joins the workers. Pending tasks are discarded (the fleet always
  /// wait_idle()s before letting the executor die).
  ~WorkStealingExecutor();

  WorkStealingExecutor(const WorkStealingExecutor&) = delete;
  WorkStealingExecutor& operator=(const WorkStealingExecutor&) = delete;

  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Enqueues one task. From one of this executor's workers this lands on
  /// the calling worker's own deque (no lock); from any other thread —
  /// including another executor's worker — it goes to the injection
  /// queue.
  void submit(Task task);

  /// Enqueues a batch under a single injection-queue lock. The batch is
  /// consumed by idle workers in steal-half chunks.
  void submit_bulk(std::vector<Task> tasks);

  /// Blocks until every submitted task — including tasks submitted BY
  /// tasks, transitively — has finished. Rethrows the first task
  /// exception (all other tasks still run to completion first). Must be
  /// called from a non-worker thread.
  void wait_idle();

  /// Snapshot of the lifetime counters (racy reads; exact once idle).
  [[nodiscard]] Stats stats() const;

 private:
  struct Worker {
    TaskDeque deque;
    // Relaxed atomics: each counter has a single writer (its worker),
    // but stats() may read while workers run — e.g. a worker bumping
    // `parks` after the wave it finished was already reported idle.
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> refills{0};
    std::atomic<std::uint64_t> parks{0};
    // Cheap xorshift state for victim selection; seeded per worker, so
    // steal order is arbitrary by design (results may not depend on it).
    std::uint64_t rng = 0;
  };

  void worker_loop(unsigned index);
  /// The calling thread's worker index in THIS executor, or -1.
  [[nodiscard]] int own_worker_index() const;
  /// Finds the next task for worker `w`: own deque, then a steal-half
  /// refill from the injection queue, then stealing from victims.
  Task* find_task(Worker& w);
  void run_task(Task* task);
  void unpark_some(std::size_t count);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Driver-side injection queue (bulk submit + steal-half refill).
  std::mutex inject_mu_;
  std::deque<Task*> inject_;

  // Parking lot.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<std::uint64_t> parked_{0};
  bool stop_ = false;

  // Outstanding-task accounting for wait_idle().
  std::atomic<std::int64_t> pending_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  // First task exception, delivered by the next wait_idle().
  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

}  // namespace eandroid::exp
