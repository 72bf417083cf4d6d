#include "server/session.h"

#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "server/server.h"

namespace indbml::server {

Session::Session(QueryServer* server, sql::QueryEngine::Options options)
    : server_(server), options_(std::move(options)) {}

sql::QueryEngine::Options Session::options() const {
  MutexLock lock(mu_);
  return options_;
}

void Session::set_options(const sql::QueryEngine::Options& options) {
  MutexLock lock(mu_);
  options_ = options;
}

int Session::priority() const {
  MutexLock lock(mu_);
  return priority_;
}

void Session::set_priority(int priority) {
  MutexLock lock(mu_);
  priority_ = priority < 1 ? 1 : priority;
}

Result<std::shared_ptr<QueryHandle>> Session::Submit(const std::string& sql) {
  const sql::QueryEngine::Options opts = options();
  const int prio = priority();
  sql::QueryEngine* engine = server_->engine();

  std::shared_ptr<const sql::LogicalOp> plan;
  PlanCache* cache = server_->plan_cache();
  PlanCache::Key key;
  if (cache != nullptr) {
    key.sql = sql;
    key.options_fingerprint = OptionsFingerprint(opts.optimizer);
    key.catalog_version = engine->catalog()->version();
    plan = cache->Lookup(key);
  }
  if (plan == nullptr) {
    INDBML_ASSIGN_OR_RETURN(auto planned, engine->PlanQuery(sql, opts));
    plan = std::shared_ptr<const sql::LogicalOp>(std::move(planned));
    if (cache != nullptr) cache->Insert(key, plan);
  }
  return SubmitPlan(std::move(plan), opts, prio);
}

Result<std::shared_ptr<QueryHandle>> Session::SubmitPlan(
    std::shared_ptr<const sql::LogicalOp> plan,
    const sql::QueryEngine::Options& opts, int priority) {
  sql::QueryEngine* engine = server_->engine();
  // The ModelJoin build phase runs serially on this submitting thread: the
  // executor's threads never return from their worker loops, so there is
  // no pool to parse on. Registry builds run the same way.
  INDBML_ASSIGN_OR_RETURN(
      auto prep,
      engine->PreparePhysical(*plan, opts, server_->executor()->num_threads(),
                              /*build_pool=*/nullptr, /*profile=*/nullptr));

  // The job may outlive this call (non-blocking submit): the factory keeps
  // the planner and the cached logical plan alive until the query finishes.
  std::shared_ptr<sql::PhysicalPlanner> planner(std::move(prep.planner));
  JobSpec spec;
  spec.factory = [planner, plan](int worker) {
    return planner->Instantiate(worker);
  };
  spec.catalog = engine->catalog();
  spec.priority = priority;
  if (prep.use_morsel) {
    spec.morsels = planner->Morsels(opts.morsel_rows);
    spec.num_instances = planner->num_workers();
  } else {
    spec.serial = true;
    spec.num_instances = 1;
  }
  return server_->executor()->Submit(std::move(spec));
}

Result<exec::QueryResult> Session::ExecuteQuery(const std::string& sql) {
  Stopwatch stopwatch;
  INDBML_ASSIGN_OR_RETURN(auto handle, Submit(sql));
  auto result = handle->Wait();
  metrics::Registry::Global()
      .histogram("server.query_micros")
      ->Record(stopwatch.ElapsedMicros());
  return result;
}

}  // namespace indbml::server
