#include "src/common/worker_pool.h"

#include <string>

#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {

WorkerPool::WorkerPool(int workers) : workers_(workers < 1 ? 1 : workers) {
  threads_.reserve(static_cast<size_t>(workers_ - 1));
  for (int i = 1; i < workers_; ++i) {
    threads_.emplace_back([this, i] {
      if (telemetry::Enabled()) {
        // Name the track up front so exported traces label pool rows even if this thread's
        // first event fires deep inside a shard window.
        telemetry::Tracer::Global().SetThreadName("pool worker " + std::to_string(i));
      }
      ThreadMain();
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

size_t WorkerPool::WorkOn(const std::function<void(size_t)>* fn, size_t n) {
  size_t done = 0;
  for (size_t i = next_index_.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next_index_.fetch_add(1, std::memory_order_relaxed)) {
    (*fn)(i);
    ++done;
  }
  return done;
}

void WorkerPool::ThreadMain() {
  uint64_t seen_batch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || batch_id_ != seen_batch; });
    if (shutdown_) {
      return;
    }
    seen_batch = batch_id_;
    // The batch is read under the lock, and ParallelFor publishes no new batch while a worker
    // is active, so this worker's fn and n always belong to the counter it pulls from. A
    // worker joining after its batch drained pulls no index and never calls fn.
    const std::function<void(size_t)>* fn = fn_;
    const size_t n = batch_size_;
    ++active_;
    lock.unlock();
    const size_t done = WorkOn(fn, n);
    lock.lock();
    --active_;
    completed_ += done;
    if (active_ == 0 || completed_ == batch_size_) {
      done_cv_.notify_all();
    }
  }
}

void WorkerPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (workers_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Workers still leaving the previous batch hold its size; let them go before the index
    // counter restarts.
    done_cv_.wait(lock, [&] { return active_ == 0; });
    fn_ = &fn;
    batch_size_ = n;
    completed_ = 0;
    next_index_.store(0, std::memory_order_relaxed);
    ++batch_id_;
  }
  work_cv_.notify_all();
  const size_t done = WorkOn(&fn, n);  // the caller pulls indices too
  std::unique_lock<std::mutex> lock(mu_);
  completed_ += done;
  done_cv_.wait(lock, [&] { return completed_ == batch_size_; });
  fn_ = nullptr;
}

}  // namespace stalloc
