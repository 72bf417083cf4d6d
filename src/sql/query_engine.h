#ifndef INDBML_SQL_QUERY_ENGINE_H_
#define INDBML_SQL_QUERY_ENGINE_H_

#include <memory>
#include <string>

#include "common/config.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "exec/operator.h"
#include "sql/binder.h"
#include "sql/optimizer.h"
#include "sql/physical_planner.h"

namespace indbml::sql {

/// \brief The database engine facade: catalog + model registry + SQL
/// execution with morsel-driven parallelism (the stand-in for Actian Vector
/// in the paper's evaluation, see DESIGN.md §2).
///
/// Concurrency contract: the engine is safe to share across threads.
/// Options are read as an immutable per-query snapshot taken when the query
/// is submitted — a concurrent set_options() affects later queries, never a
/// running one. For multi-query *scheduling* (shared executor, admission
/// control, plan/model caches) use the serving stack in src/server/, which
/// layers sessions over this engine.
class QueryEngine {
 public:
  struct Options {
    /// Pipeline worker threads; 0 = one per hardware thread, 1 = serial
    /// (every plan drains on the calling thread). Workers are an execution
    /// resource, morsels the work-division unit. Honored on the next query
    /// when changed.
    int worker_threads = 0;
    /// Rows per morsel handed out by the work-stealing scheduler.
    int64_t morsel_rows = kDefaultMorselRows;
    /// Resolve ModelJoin models through the process-wide
    /// SharedModelRegistry: the first query over a (model, device) pair
    /// builds it once, later and concurrent queries block-share the built
    /// weights (MorphingDB-style model management). False (default) keeps
    /// the paper's per-query build — the cost Figures 8/9 measure. Server
    /// sessions default this to true.
    bool shared_models = false;
    /// Inference batching/cache knobs handed to the ModelJoin operators
    /// (see InferenceExecOptions). Defaults leave batching and the result
    /// cache off — single-query latency must not pay for a batch partner
    /// that never comes; QueryServer::Options turns them on for serving.
    InferenceExecOptions inference;
    OptimizerOptions optimizer;
  };

  /// Physical execution prep shared by the engine's own ExecutePlan and the
  /// serving layer (server/session.cc): the analyzed plan, the lowered
  /// per-worker planner, and the morsel-mode decision. A plan that is not
  /// morsel-driven has one worker whose scans read their full tables.
  struct PhysicalPrep {
    std::unique_ptr<PhysicalPlanner> planner;
    PlanAnalysis analysis;
    bool use_morsel = false;
  };

  QueryEngine();
  explicit QueryEngine(Options options);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  storage::Catalog* catalog() { return &catalog_; }
  ModelMetaRegistry* models() { return &models_; }

  /// Snapshot copy of the current options (thread-safe). Queries already
  /// running keep the snapshot they were submitted with.
  Options options() const INDBML_EXCLUDES(options_mu_);
  void set_options(const Options& options) INDBML_EXCLUDES(options_mu_);

  /// Parses, binds, optimizes and runs one SELECT; returns the materialised
  /// result. With a non-null `profile`, per-operator statistics (rows,
  /// chunks, Open/Next/Close time, operator phase timings) and the query's
  /// peak tracked memory are collected into it.
  Result<exec::QueryResult> ExecuteQuery(const std::string& sql,
                                         exec::QueryProfile* profile = nullptr);

  /// Parses/binds/optimizes only (tests and EXPLAIN). The no-options
  /// overload snapshots the engine options.
  Result<LogicalOpPtr> PlanQuery(const std::string& sql);
  Result<LogicalOpPtr> PlanQuery(const std::string& sql, const Options& opts);

  /// Optimized plan rendering ("EXPLAIN").
  Result<std::string> Explain(const std::string& sql);

  /// Runs the query with profiling and renders the annotated plan tree:
  /// per-operator row/chunk counts, cumulative Open/Next/Close time and
  /// operator-specific phase timings (ModelJoin build vs. inference,
  /// C-API layout conversion, UDF marshalling), plus the query's wall time
  /// and peak tracked memory.
  Result<std::string> ExplainAnalyze(const std::string& sql);

  /// Registers the native ModelJoin implementation (called by the modeljoin
  /// module's RegisterModelJoin). Call before the first query.
  void SetModelJoinFactories(ModelJoinStateFactory state_factory,
                             ModelJoinOperatorFactory operator_factory) {
    modeljoin_state_factory_ = std::move(state_factory);
    modeljoin_operator_factory_ = std::move(operator_factory);
  }

  /// Executes a pre-bound plan (used by approach drivers that build plans
  /// programmatically); `profile` as in ExecuteQuery. A morsel-eligible plan
  /// with more than one worker runs on the morsel pipeline; any other plan
  /// drains as one instance on the calling thread. The options overload
  /// runs under the given immutable snapshot (the serving layer's per-query
  /// snapshot semantics); the other snapshots the engine options.
  Result<exec::QueryResult> ExecutePlan(const LogicalOp& plan,
                                        exec::QueryProfile* profile = nullptr);
  Result<exec::QueryResult> ExecutePlan(const LogicalOp& plan, const Options& opts,
                                        exec::QueryProfile* profile);

  /// Analyzes `plan` and lowers it for up to `max_workers` parallel worker
  /// instances under the given options snapshot. Used by ExecutePlan and by
  /// the shared executor path (server/session.cc), which schedules the
  /// returned planner's instances itself. This is also the query's
  /// ModelJoin build phase: every ModelJoin model is complete when it
  /// returns (a registry lookup when `opts.shared_models`, otherwise a
  /// build parsed on `build_pool`, serially when null).
  Result<PhysicalPrep> PreparePhysical(const LogicalOp& plan, const Options& opts,
                                       int max_workers, ThreadPool* build_pool,
                                       exec::QueryProfile* profile);

  /// Effective pipeline worker count: `worker_threads` if set, one per
  /// hardware thread otherwise.
  int EffectiveWorkers() const;

  /// Ref-counted handle on the engine's worker pool, lazily (re)created
  /// with `want` threads. Re-sizing creates a fresh pool while in-flight
  /// queries keep their old one alive, so hold the handle for the query's
  /// duration.
  std::shared_ptr<ThreadPool> SharedPool(int want) INDBML_EXCLUDES(pool_mu_);

 private:
  mutable Mutex options_mu_;
  Options options_ INDBML_GUARDED_BY(options_mu_);
  storage::Catalog catalog_;
  ModelMetaRegistry models_;
  mutable Mutex pool_mu_;
  std::shared_ptr<ThreadPool> pool_ INDBML_GUARDED_BY(pool_mu_);
  ModelJoinStateFactory modeljoin_state_factory_;
  ModelJoinOperatorFactory modeljoin_operator_factory_;
};

}  // namespace indbml::sql

#endif  // INDBML_SQL_QUERY_ENGINE_H_
