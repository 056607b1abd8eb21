#include "util/thread_pool.h"

#include <atomic>

namespace classic {

ThreadPool::ThreadPool(size_t num_threads) {
  // A 0-worker pool is legal: ParallelFor then runs everything on the
  // calling thread (serving concurrency 1).
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;

  // Shared per-call state lives on this stack frame. `active` is only
  // touched under `m`: the caller returns (destroying the Latch) as soon
  // as it observes zero, so the last helper must decrement and notify
  // before it releases the mutex, never after.
  struct Latch {
    std::atomic<size_t> next{0};
    size_t active = 0;
    std::mutex m;
    std::condition_variable cv;
  } latch;

  auto run = [&latch, &fn, n] {
    for (;;) {
      const size_t i = latch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
    }
    std::lock_guard<std::mutex> lock(latch.m);
    if (--latch.active == 0) latch.cv.notify_all();
  };

  const size_t helpers = workers_.size() < n ? workers_.size() : n;
  latch.active = helpers + 1;
  for (size_t w = 0; w < helpers; ++w) Submit(run);
  run();  // the caller works too

  std::unique_lock<std::mutex> lock(latch.m);
  latch.cv.wait(lock, [&latch] { return latch.active == 0; });
}

}  // namespace classic
