#include "exp/work_stealing.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace eandroid::exp {

// --- TaskDeque -------------------------------------------------------------

namespace {
std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

TaskDeque::Ring::Ring(std::size_t capacity)
    : mask(static_cast<std::int64_t>(capacity) - 1),
      slots(new std::atomic<Slot>[capacity]) {
  for (std::size_t i = 0; i < capacity; ++i) {
    slots[i].store(nullptr, std::memory_order_relaxed);
  }
}

TaskDeque::TaskDeque(std::size_t initial_capacity)
    : ring_(new Ring(round_up_pow2(std::max<std::size_t>(initial_capacity, 2)))) {}

TaskDeque::~TaskDeque() {
  Ring* ring = ring_.load(std::memory_order_relaxed);
  delete ring;
  while (retired_ != nullptr) {
    Ring* next = retired_->retired_next;
    delete retired_;
    retired_ = next;
  }
}

TaskDeque::Ring* TaskDeque::grow(Ring* ring, std::int64_t top,
                                 std::int64_t bottom) {
  auto* bigger = new Ring(static_cast<std::size_t>(ring->mask + 1) * 2);
  for (std::int64_t i = top; i < bottom; ++i) {
    bigger->slots[i & bigger->mask].store(
        ring->slots[i & ring->mask].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  // Thieves may still hold the old ring: entries at indices < top are
  // dead, and any index they can win via the top CAS is present in both
  // rings, so retiring (not freeing) the old ring keeps them safe.
  ring->retired_next = retired_;
  retired_ = ring;
  ring_.store(bigger, std::memory_order_release);
  return bigger;
}

void TaskDeque::push(Slot task) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  Ring* ring = ring_.load(std::memory_order_relaxed);
  if (b - t > ring->mask) ring = grow(ring, t, b);
  ring->slots[b & ring->mask].store(task, std::memory_order_release);
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

TaskDeque::Slot TaskDeque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Ring* ring = ring_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Empty: restore bottom.
    bottom_.store(b + 1, std::memory_order_relaxed);
    return nullptr;
  }
  Slot task = ring->slots[b & ring->mask].load(std::memory_order_acquire);
  if (t == b) {
    // Last element: race the thieves for it via the top CAS.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      task = nullptr;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return task;
}

TaskDeque::Slot TaskDeque::steal() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Ring* ring = ring_.load(std::memory_order_acquire);
  Slot task = ring->slots[t & ring->mask].load(std::memory_order_acquire);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // lost the race; caller picks another victim
  }
  return task;
}

std::size_t TaskDeque::approx_size() const {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_relaxed);
  return b > t ? static_cast<std::size_t>(b - t) : 0;
}

// --- WorkStealingExecutor --------------------------------------------------

namespace {
/// The executor the current thread works for and its worker index there
/// (null / -1 on other threads). Keyed by executor, because a task of one
/// executor may drive another as its driver thread — a ParallelRunner job
/// that runs a Fleet does exactly that.
thread_local const WorkStealingExecutor* t_executor = nullptr;
thread_local int t_worker_index = -1;

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}
}  // namespace

WorkStealingExecutor::WorkStealingExecutor(unsigned workers) {
  const unsigned n = std::max(
      1u, workers != 0 ? workers : std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->rng = 0x9e3779b97f4a7c15ull * (i + 1) + 1;
  }
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealingExecutor::~WorkStealingExecutor() {
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    stop_ = true;
  }
  park_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // Discard anything still queued (injection queue + deques).
  for (Task* task : inject_) delete task;
  for (auto& w : workers_) {
    while (auto* task = static_cast<Task*>(w->deque.pop())) delete task;
  }
}

int WorkStealingExecutor::own_worker_index() const {
  return t_executor == this ? t_worker_index : -1;
}

void WorkStealingExecutor::submit(Task task) {
  auto* heap_task = new Task(std::move(task));
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const int index = own_worker_index();
  if (index >= 0) {
    // Worker self-submission (a device task re-queueing its next grain):
    // the owner's deque, no lock. Wake a parked thief if there is one —
    // the new task is stealable and the siblings may all be asleep.
    workers_[static_cast<std::size_t>(index)]->deque.push(heap_task);
    if (parked_.load(std::memory_order_relaxed) > 0) unpark_some(1);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    inject_.push_back(heap_task);
  }
  unpark_some(1);
}

void WorkStealingExecutor::submit_bulk(std::vector<Task> tasks) {
  if (tasks.empty()) return;
  EANDROID_CHECK(own_worker_index() < 0,
                 "submit_bulk must be called from the driver thread");
  pending_.fetch_add(static_cast<std::int64_t>(tasks.size()),
                     std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    for (Task& task : tasks) inject_.push_back(new Task(std::move(task)));
  }
  unpark_some(tasks.size());
}

void WorkStealingExecutor::unpark_some(std::size_t count) {
  // Taking park_mu_ orders this notify against a worker's empty-scan:
  // a worker holds park_mu_ from its final work check until it is inside
  // wait(), so a submission cannot slip between the check and the sleep.
  std::lock_guard<std::mutex> lock(park_mu_);
  if (count >= workers_.size()) {
    park_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < count; ++i) park_cv_.notify_one();
  }
}

WorkStealingExecutor::Task* WorkStealingExecutor::find_task(Worker& w) {
  // 1. Own deque (LIFO — the freshest requeued grain, cache-warm).
  if (auto* task = static_cast<Task*>(w.deque.pop())) return task;

  // 2. Steal-half refill from the injection queue: take up to half the
  //    queued batch in ONE lock acquisition, run the first, own the rest.
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (!inject_.empty()) {
      const std::size_t take =
          std::max<std::size_t>(1, (inject_.size() + 1) / 2);
      Task* first = inject_.front();
      inject_.pop_front();
      for (std::size_t i = 1; i < take; ++i) {
        w.deque.push(inject_.front());
        inject_.pop_front();
      }
      w.refills.fetch_add(1, std::memory_order_relaxed);
      return first;
    }
  }

  // 3. Steal from a random victim, sweeping all workers once from a
  //    random start so two thieves rarely collide on the same deque.
  const std::size_t n = workers_.size();
  if (n > 1) {
    const std::size_t start = static_cast<std::size_t>(xorshift(w.rng) % n);
    for (std::size_t k = 0; k < n; ++k) {
      Worker& victim = *workers_[(start + k) % n];
      if (&victim == &w) continue;
      // Steal-half policy: after winning one task to run, keep stealing
      // while the victim still has a backlog, up to half of what it had,
      // so a long run of parked-device tasks rebalances in one sweep.
      if (auto* task = static_cast<Task*>(victim.deque.steal())) {
        w.steals.fetch_add(1, std::memory_order_relaxed);
        std::size_t extra = victim.deque.approx_size() / 2;
        extra = std::min<std::size_t>(extra, 16);
        for (std::size_t i = 0; i < extra; ++i) {
          auto* more = static_cast<Task*>(victim.deque.steal());
          if (more == nullptr) break;
          w.steals.fetch_add(1, std::memory_order_relaxed);
          w.deque.push(more);
        }
        return task;
      }
    }
  }
  return nullptr;
}

void WorkStealingExecutor::run_task(Task* task) {
  try {
    (*task)();
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  delete task;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last outstanding task: wake the driver. The lock pairs with
    // wait_idle's predicate check so the wake cannot be missed.
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_cv_.notify_all();
  }
}

void WorkStealingExecutor::worker_loop(unsigned index) {
  t_executor = this;
  t_worker_index = static_cast<int>(index);
  Worker& w = *workers_[index];
  for (;;) {
    if (Task* task = find_task(w)) {
      // Count before run_task's pending_ release: wait_idle's acquire on
      // pending_ == 0 then guarantees stats() sees every increment (the
      // after-the-fact bump was readable as N-1 right after wait_idle).
      w.executed.fetch_add(1, std::memory_order_relaxed);
      run_task(task);
      continue;
    }
    // Nothing anywhere: park. Re-check for work under the lock so a
    // submission racing the park cannot be lost (submit notifies after
    // publishing to the injection queue; deque pushes by other workers
    // notify when parked_ > 0).
    std::unique_lock<std::mutex> lock(park_mu_);
    if (stop_) return;
    bool work = false;
    {
      std::lock_guard<std::mutex> inject_lock(inject_mu_);
      work = !inject_.empty();
    }
    if (!work) {
      for (const auto& other : workers_) {
        if (other->deque.approx_size() > 0) {
          work = true;
          break;
        }
      }
    }
    if (work) continue;
    w.parks.fetch_add(1, std::memory_order_relaxed);
    parked_.fetch_add(1, std::memory_order_relaxed);
    park_cv_.wait(lock);
    parked_.fetch_sub(1, std::memory_order_relaxed);
    if (stop_) return;
  }
}

void WorkStealingExecutor::wait_idle() {
  EANDROID_CHECK(own_worker_index() < 0,
                 "wait_idle must be called from the driver thread");
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
  lock.unlock();
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> error_lock(error_mu_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

WorkStealingExecutor::Stats WorkStealingExecutor::stats() const {
  Stats s;
  for (const auto& w : workers_) {
    s.executed += w->executed.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.injection_refills += w->refills.load(std::memory_order_relaxed);
    s.parks += w->parks.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace eandroid::exp
