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
/// count; concurrent queries share it. `ParallelFor` waits only for the
/// caller's own tasks, so two client threads never wait on each other's
/// work. `WaitIdle()` blocks until every submitted task has finished.
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

  /// Runs `fn(i)` for i in [0, n) across the pool and returns once every
  /// index has run. Waits for this call's tasks only, not for tasks other
  /// threads submitted; the tasks' writes are visible to the caller on
  /// return. Never call from a pool worker.
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

}  // namespace indbml

#endif  // INDBML_COMMON_THREAD_POOL_H_
