#include "exp/worker_pool.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace eandroid::exp {

namespace {
/// The pool whose thread this is (null on other threads). Keyed by pool,
/// because a call of one pool may drive another as its driver thread.
thread_local const WorkerPool* t_pool = nullptr;
}  // namespace

WorkerPool::WorkerPool(unsigned threads)
    : max_threads_(threads != 0
                       ? threads
                       : std::max(1u, std::thread::hardware_concurrency())) {}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  EANDROID_CHECK(t_pool != this,
                 "WorkerPool::run called from one of the pool's own threads");
  if (n == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  size_ = n;
  next_ = 0;
  ++batch_;
  if (threads_.empty()) {
    // First batch: start the threads now that it is published. Each one
    // counts as busy once it exists; they cannot leave the batch before
    // the wait below releases the lock.
    const std::size_t count = std::min<std::size_t>(max_threads_, n);
    try {
      while (threads_.size() < count) {
        threads_.emplace_back([this] { work(); });
        ++busy_;
      }
    } catch (...) {
      if (threads_.empty()) throw;  // run the batch on those that started
    }
  } else {
    busy_ = threads_.size();
    wake_.notify_all();
  }
  done_.wait(lock, [this] { return busy_ == 0; });
  fn_ = nullptr;
  std::exception_ptr error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void WorkerPool::work() {
  t_pool = this;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || batch_ != seen; });
    if (stop_) return;
    seen = batch_;
    const std::function<void(std::size_t)>& fn = *fn_;
    while (next_ < size_) {
      const std::size_t i = next_++;
      lock.unlock();
      std::exception_ptr error;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && (!error_ || i < error_index_)) {
        error_ = std::move(error);
        error_index_ = i;
      }
    }
    if (--busy_ == 0) done_.notify_one();
  }
}

}  // namespace eandroid::exp
