#ifndef INDBML_SERVER_EXECUTOR_H_
#define INDBML_SERVER_EXECUTOR_H_

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "exec/morsel.h"
#include "exec/operator.h"
#include "storage/table.h"

namespace indbml::server {

class SharedExecutor;

/// One query's unit of admission to the shared executor.
struct JobSpec {
  /// Builds the private operator tree of one worker instance (bound to the
  /// prepared physical plan; see session.cc). Instances are created lazily,
  /// one per concurrently scheduled morsel, up to `num_instances`.
  exec::WorkerPlanFactory factory;
  /// Upper bound on concurrently running instances (the planner's worker
  /// count). Must be 1 when `serial`.
  int num_instances = 1;
  /// The query's morsels (empty when `serial`). Ignored when `serial`.
  std::vector<storage::PartitionRange> morsels;
  /// True = the plan cannot be morsel-scheduled (serial or static plans):
  /// the job runs as one dispatch that drains instance 0 end-to-end.
  bool serial = false;
  /// Stride-scheduling weight: a priority-2 query receives ~2x the morsel
  /// dispatches of a priority-1 query under contention. Clamped to >= 1.
  int priority = 1;
  storage::Catalog* catalog = nullptr;
};

/// \brief Caller-side handle on one submitted query.
///
/// Returned by SharedExecutor::Submit. Wait() blocks until the query
/// finished (or was cancelled) and consumes the result — call it once.
/// Cancel() is the session-facing cancellation token: it aborts the query's
/// MorselSource so in-flight workers stop claiming morsels mid-query; the
/// query then completes with StatusCode::kCancelled.
class QueryHandle {
 public:
  QueryHandle(const QueryHandle&) = delete;
  QueryHandle& operator=(const QueryHandle&) = delete;

  /// Blocks until the query finished; returns the assembled result or the
  /// first error (kCancelled after Cancel). Consumes the result.
  Result<exec::QueryResult> Wait() INDBML_EXCLUDES(done_mu_);

  /// Requests cancellation: stops morsel hand-outs immediately (running
  /// morsels finish; the query never wedges the executor) and completes the
  /// query with kCancelled. Idempotent, callable from any thread.
  void Cancel();

  bool done() const INDBML_EXCLUDES(done_mu_);
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

 private:
  friend class SharedExecutor;

  /// One lazily created worker-plan instance. The executor hands an
  /// instance to at most one dispatch at a time (free-list), so its
  /// operator tree and context need no locking of their own.
  struct Instance {
    exec::OperatorPtr op;
    exec::ExecContext ctx;
    bool open_ok = false;
  };

  explicit QueryHandle(JobSpec spec);

  JobSpec spec_;  ///< morsels moved out into source_
  exec::MorselSource source_;
  exec::ResultCollector collector_;
  exec::FirstError errors_;
  std::atomic<bool> cancelled_{false};

  // --- Scheduling state, guarded by the owning SharedExecutor's mu_ (a
  // member of another object cannot be named in GUARDED_BY; executor.cc
  // only touches these under mu_, except during finalize when the job has
  // been removed from the run queue and has no active dispatches).
  std::vector<std::unique_ptr<Instance>> instances_;
  std::vector<int> free_instances_;
  int created_instances_ = 0;
  int active_dispatches_ = 0;
  bool no_more_work_ = false;
  bool serial_result_set_ = false;
  int64_t pass_ = 0;
  int64_t stride_ = 0;
  exec::QueryResult serial_result_;

  mutable Mutex done_mu_;
  CondVar done_cv_;
  bool done_ INDBML_GUARDED_BY(done_mu_) = false;
  Status status_ INDBML_GUARDED_BY(done_mu_);
  exec::QueryResult result_ INDBML_GUARDED_BY(done_mu_);
};

/// \brief The process-wide morsel executor shared by all sessions.
///
/// Replaces the per-query worker pools of exec::ExecutePipeline for the
/// serving path: one fixed set of worker threads interleaves morsels from
/// every in-flight query. Scheduling is stride-based — each dispatch picks
/// the runnable job with the smallest pass value and advances it by
/// 1/priority — so concurrent queries share the workers fairly and a
/// higher-priority query drains proportionally faster. Dispatch granularity
/// is one morsel, so a long scan never blocks a short query for more than
/// one morsel's worth of work.
///
/// Admission control: at most `max_inflight` jobs run concurrently; up to
/// `max_queued` more wait in FIFO order; beyond that Submit fails fast with
/// kResourceExhausted. The wait-queue depth is exported as the
/// server.queue_depth gauge (the ISSUE's overload signal).
///
/// Worker-plan instances are created and Opened lazily on worker threads,
/// so an instance's Open must never wait on another instance. None does:
/// ModelJoin models are complete before the job is submitted (see
/// session.cc), whether they come from the SharedModelRegistry or from a
/// per-query build.
class SharedExecutor {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread.
    int worker_threads = 0;
    /// Jobs running concurrently before new submits queue.
    int max_inflight = 8;
    /// Queued jobs before Submit rejects with kResourceExhausted.
    int max_queued = 64;
  };

  explicit SharedExecutor(const Options& options);
  ~SharedExecutor();

  SharedExecutor(const SharedExecutor&) = delete;
  SharedExecutor& operator=(const SharedExecutor&) = delete;

  /// Admits one query. Returns the handle to Wait/Cancel on, or
  /// kResourceExhausted when both the run and wait queues are full.
  Result<std::shared_ptr<QueryHandle>> Submit(JobSpec spec)
      INDBML_EXCLUDES(mu_);

  int num_threads() const { return num_threads_; }
  /// Jobs currently running (admitted, not finished).
  int64_t inflight() const INDBML_EXCLUDES(mu_);
  /// Jobs waiting for admission.
  int64_t queue_depth() const INDBML_EXCLUDES(mu_);

 private:
  /// One claimed unit of work: a (job, instance, morsel) triple, a serial
  /// whole-query drain, or a bare finalize pass for a job that drained.
  struct Dispatch {
    std::shared_ptr<QueryHandle> job;
    exec::Morsel morsel;
    int instance = 0;
    bool serial = false;
    bool finalize_only = false;
    bool instance_dead = false;
  };

  void WorkerLoop() INDBML_EXCLUDES(mu_);
  bool FindWorkLocked(Dispatch* d) INDBML_REQUIRES(mu_);
  void RunDispatch(Dispatch* d);
  /// Returns true when the job fully drained and this worker must finalize.
  bool CompleteDispatchLocked(Dispatch* d) INDBML_REQUIRES(mu_);
  /// Closes instances, assembles the result, wakes waiters. Called without
  /// mu_ — the job is out of running_ with no active dispatches.
  void FinalizeJob(const std::shared_ptr<QueryHandle>& job);
  int64_t MinPassLocked() const INDBML_REQUIRES(mu_);

  const Options options_;
  const int num_threads_;
  mutable Mutex mu_;
  CondVar cv_work_;
  std::vector<std::shared_ptr<QueryHandle>> running_ INDBML_GUARDED_BY(mu_);
  std::deque<std::shared_ptr<QueryHandle>> queued_ INDBML_GUARDED_BY(mu_);
  bool shutdown_ INDBML_GUARDED_BY(mu_) = false;
  /// Workers run WorkerLoop as long-lived pool tasks (all engine threads
  /// come from common::ThreadPool); destroyed first in ~SharedExecutor.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace indbml::server

#endif  // INDBML_SERVER_EXECUTOR_H_
