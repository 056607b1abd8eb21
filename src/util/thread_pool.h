// A small fixed-size worker pool for read-side parallelism.
//
// The serving layer (kb/kb_engine.h) fans batches of queries across
// workers; each worker evaluates complete queries against an immutable
// snapshot, so tasks never synchronize with each other beyond the pool's
// own queue. ParallelFor is the only primitive the KB needs: run fn(i)
// for i in [0, n) with dynamic load balancing, block until done.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace classic {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers. A 0-worker pool is legal: ParallelFor
  /// then runs all iterations on the calling thread.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// \brief Runs fn(0) .. fn(n-1) across the workers (work-stealing by
  /// atomic counter) and returns when all calls have finished. The
  /// calling thread participates, so a 1-thread pool still makes
  /// progress even if its worker is starved.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  /// Enqueues one task. Private: only ParallelFor's latch tells a caller
  /// when a queued task has finished. Tasks must not throw.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace classic
