#include "common/thread_pool.h"

#include <atomic>

#include "common/logging.h"
#include "common/trace.h"

namespace indbml {

int HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

ThreadPool::ThreadPool(int num_threads) {
  INDBML_CHECK(num_threads > 0) << "thread pool needs at least one worker";
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_task_.NotifyAll();
  for (auto& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    // A task enqueued during shutdown would never run and a later WaitIdle
    // would hang on it; make the misuse loud instead of a silent hang.
    INDBML_CHECK(!shutdown_) << "Submit on a ThreadPool being destroyed";
    queue_.push_back(std::move(task));
  }
  cv_task_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  MutexLock lock(mu_);
  while (!queue_.empty() || active_ != 0) cv_idle_.Wait(mu_);
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  std::atomic<int> next{0};
  const int tasks = std::min<int>(n, num_threads());
  // Completion is counted per call. WaitIdle() would also wait for tasks
  // other client threads queued, so two callers sharing the pool would each
  // wait on the other's work.
  Mutex done_mu;
  CondVar done_cv;
  int remaining = tasks;
  for (int t = 0; t < tasks; ++t) {
    Submit([&] {
      int i;
      while ((i = next.fetch_add(1)) < n) fn(i);
      // Notify under the lock: once the caller sees zero it returns and
      // destroys done_cv.
      MutexLock lock(done_mu);
      if (--remaining == 0) done_cv.NotifyAll();
    });
  }
  MutexLock lock(done_mu);
  while (remaining != 0) done_cv.Wait(done_mu);
}

void ThreadPool::WorkerLoop(int worker_index) {
  if (trace::Enabled()) {
    trace::SetThreadName("worker-" + std::to_string(worker_index));
  }
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_task_.Wait(mu_);
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.NotifyAll();
    }
  }
}

}  // namespace indbml
