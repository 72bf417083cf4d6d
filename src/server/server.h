#ifndef INDBML_SERVER_SERVER_H_
#define INDBML_SERVER_SERVER_H_

#include <memory>

#include "server/executor.h"
#include "server/plan_cache.h"
#include "server/session.h"
#include "sql/query_engine.h"

namespace indbml::server {

/// \brief The serving stack: session handles over a shared scheduler over
/// one embedded QueryEngine (ISSUE 9 / DESIGN.md §3g).
///
/// Layering:
///   Session (per client: options snapshot, submit, cancel)
///     → SharedExecutor (process-wide morsel scheduler: stride-fair
///       interleaving, admission control)
///     → shared plan/model layer (PlanCache keyed on catalog version;
///       modeljoin::SharedModelRegistry building each (model, device) once)
///     → QueryEngine (catalog, binder, optimizer, physical planner).
///
/// The embedded engine stays fully usable directly — existing callers
/// (RegisterNativeModelJoin, benchlib) take server.engine() — but queries
/// through sessions share one worker pool instead of each dragging their
/// own, which is what turns N back-to-back queries into concurrent ones.
class QueryServer {
 public:
  struct Options {
    Options() {
      // Serving default: concurrent queries over the same model share one
      // build through the registry (flip off to measure per-query builds).
      engine.shared_models = true;
      // Serving default: inference requests coalesce across queries and
      // memoize per-tuple predictions — the paper's small-per-query-batch
      // problem is a serving problem, so the knobs default on here and off
      // in the bare engine. batch_window_us trades per-chunk latency for
      // batch partners; 100µs is far below per-query wall times at CI
      // scale while long enough for concurrently scheduled morsels to
      // meet.
      engine.inference.batch_window_us = 100;
      engine.inference.max_batch_rows = 4096;
      engine.inference.result_cache = true;
    }
    /// Default options inherited by new sessions (and applied to the
    /// embedded engine).
    sql::QueryEngine::Options engine;
    /// Shared executor sizing; 0 = one worker per hardware thread.
    int worker_threads = 0;
    /// Queries running concurrently before new submits queue.
    int max_inflight_queries = 8;
    /// Queued queries before Submit rejects with kResourceExhausted.
    int max_queued_queries = 64;
    /// Cached prepared statements; 0 disables the plan cache.
    int64_t plan_cache_capacity = 64;
    bool enable_plan_cache = true;
    /// Bound on the bytes the process-wide inference result cache really
    /// allocates (its per-model slot tables, headers included). 0 disables
    /// memoization even if sessions request it.
    int64_t inference_cache_mb = 32;
  };

  QueryServer() : QueryServer(Options()) {}
  explicit QueryServer(const Options& options);

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// New session starting from the server's default engine options.
  std::unique_ptr<Session> CreateSession();

  sql::QueryEngine* engine() { return &engine_; }
  storage::Catalog* catalog() { return engine_.catalog(); }
  SharedExecutor* executor() { return &executor_; }
  /// Null when the plan cache is disabled.
  PlanCache* plan_cache() { return plan_cache_.get(); }
  const Options& options() const { return options_; }

 private:
  Options options_;
  sql::QueryEngine engine_;
  std::unique_ptr<PlanCache> plan_cache_;
  SharedExecutor executor_;
};

}  // namespace indbml::server

#endif  // INDBML_SERVER_SERVER_H_
