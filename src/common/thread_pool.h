#ifndef INDBML_COMMON_THREAD_POOL_H_
#define INDBML_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace indbml {

/// Number of hardware threads, clamped to >= 1 (the standard allows
/// hardware_concurrency() to report 0 when unknown).
int HardwareConcurrency();

/// Fixed-size worker pool.
///
/// The query engine keeps one shared pool sized to its pipeline worker
/// count and submits one task per pipeline worker. `WaitIdle()` blocks
/// until every submitted task has finished.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; runs as soon as a worker is free. Must not be called
  /// once destruction has begun.
  void Submit(std::function<void()> task) INDBML_EXCLUDES(mu_);

  /// Blocks until the queue is empty and all workers are idle. Never call
  /// from a pool worker (it would wait for itself).
  void WaitIdle() INDBML_EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Convenience: run `fn(i)` for i in [0, n) across the pool and wait.
  void ParallelFor(int n, const std::function<void(int)>& fn)
      INDBML_EXCLUDES(mu_);

 private:
  void WorkerLoop(int worker_index) INDBML_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_task_;
  CondVar cv_idle_;
  std::deque<std::function<void()>> queue_ INDBML_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  ///< set in ctor, joined in dtor only
  int active_ INDBML_GUARDED_BY(mu_) = 0;
  bool shutdown_ INDBML_GUARDED_BY(mu_) = false;
};

/// Reusable rendezvous point: every participating thread calls Wait() and
/// blocks until all `count` threads arrived. Used by the parallel ModelJoin
/// build phase (paper §5.2: "a barrier before leaving the build phase").
class Barrier {
 public:
  explicit Barrier(int count) : threshold_(count), count_(count) {}

  void Wait() INDBML_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    int gen = generation_;
    if (--count_ == 0) {
      ++generation_;
      count_ = threshold_;
      cv_.NotifyAll();
      return;
    }
    while (gen == generation_) cv_.Wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  const int threshold_;
  int count_ INDBML_GUARDED_BY(mu_);
  int generation_ INDBML_GUARDED_BY(mu_) = 0;
};

}  // namespace indbml

#endif  // INDBML_COMMON_THREAD_POOL_H_
