#include "sql/query_engine.h"

#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "common/validation.h"
#include "exec/morsel.h"
#include "sql/parser.h"
#include "sql/plan_validate.h"

namespace indbml::sql {

namespace {

int WorkersFor(const QueryEngine::Options& opts) {
  return opts.worker_threads > 0 ? opts.worker_threads : HardwareConcurrency();
}

}  // namespace

QueryEngine::QueryEngine() : QueryEngine(Options()) {}

QueryEngine::QueryEngine(Options options) : options_(options) {
  // A model DEPLOY (Register) is a DDL-like mutation: bump the catalog
  // version so cached plans bound against the old model metadata re-resolve
  // (server/plan_cache.h keys on the version).
  models_.SetMutationCallback([this] { catalog_.BumpVersion(); });
}

QueryEngine::~QueryEngine() = default;

QueryEngine::Options QueryEngine::options() const {
  MutexLock lock(options_mu_);
  return options_;
}

void QueryEngine::set_options(const Options& options) {
  MutexLock lock(options_mu_);
  options_ = options;
}

int QueryEngine::EffectiveWorkers() const { return WorkersFor(options()); }

std::shared_ptr<ThreadPool> QueryEngine::SharedPool(int want) {
  MutexLock lock(pool_mu_);
  if (pool_ == nullptr || pool_->num_threads() != want) {
    pool_ = std::make_shared<ThreadPool>(want);
  }
  return pool_;
}

Result<LogicalOpPtr> QueryEngine::PlanQuery(const std::string& sql,
                                            const Options& opts) {
  INDBML_ASSIGN_OR_RETURN(auto stmt, ParseSelect(sql));
  Binder binder(&catalog_, &models_);
  INDBML_ASSIGN_OR_RETURN(auto plan, binder.Bind(*stmt));
  Optimizer optimizer(opts.optimizer);
  return optimizer.Optimize(std::move(plan));
}

Result<LogicalOpPtr> QueryEngine::PlanQuery(const std::string& sql) {
  return PlanQuery(sql, options());
}

Result<exec::QueryResult> QueryEngine::ExecuteQuery(const std::string& sql,
                                                    exec::QueryProfile* profile) {
  const Options opts = options();
  INDBML_ASSIGN_OR_RETURN(auto plan, PlanQuery(sql, opts));
  return ExecutePlan(*plan, opts, profile);
}

Result<QueryEngine::PhysicalPrep> QueryEngine::PreparePhysical(
    const LogicalOp& plan, const Options& opts, int max_workers,
    ThreadPool* build_pool, exec::QueryProfile* profile) {
  PhysicalPrep prep;
  Optimizer optimizer(opts.optimizer);
  prep.analysis = optimizer.Analyze(plan);
  prep.use_morsel = prep.analysis.parallel_safe && max_workers > 1;
  // Anything else plans one worker whose scans read their full tables.
  prep.planner = std::make_unique<PhysicalPlanner>(
      &plan, prep.analysis, prep.use_morsel ? max_workers : 1,
      modeljoin_state_factory_, modeljoin_operator_factory_, profile,
      opts.shared_models, opts.inference);
  INDBML_RETURN_NOT_OK(prep.planner->Prepare(build_pool));
  if (prep.use_morsel && validation::Enabled()) {
    INDBML_RETURN_NOT_OK(ValidateMorselSafety(plan, prep.analysis));
  }
  return prep;
}

Result<exec::QueryResult> QueryEngine::ExecutePlan(const LogicalOp& plan,
                                                   exec::QueryProfile* profile) {
  return ExecutePlan(plan, options(), profile);
}

Result<exec::QueryResult> QueryEngine::ExecutePlan(const LogicalOp& plan,
                                                   const Options& opts,
                                                   exec::QueryProfile* profile) {
  trace::Span query_span("query");
  const int pipeline_workers = WorkersFor(opts);
  // Hold the shared_ptr for the query's duration (build phase and
  // pipeline): a concurrent set_options() resizing the pool must not tear
  // it down under us. The serial mode takes no pool at all.
  std::shared_ptr<ThreadPool> pool =
      pipeline_workers > 1 ? SharedPool(pipeline_workers) : nullptr;

  // Peak tracked memory is process-wide; the reset makes the recorded peak
  // per-query as long as queries don't overlap (Table 3 methodology). Both
  // the peak and the wall time include the ModelJoin build phase.
  if (profile != nullptr) MemoryTracker::Global().ResetPeak();
  Stopwatch stopwatch;

  auto run = [&]() -> Result<exec::QueryResult> {
    INDBML_ASSIGN_OR_RETURN(
        auto prep,
        PreparePhysical(plan, opts, pipeline_workers, pool.get(), profile));
    PhysicalPlanner& planner = *prep.planner;
    if (prep.use_morsel) {
      exec::MorselSource source(planner.Morsels(opts.morsel_rows));
      exec::WorkerPlanFactory factory = [&](int worker) {
        return planner.Instantiate(worker);
      };
      return exec::ExecutePipeline(factory, &source, planner.num_workers(),
                                   &catalog_, pool.get());
    }
    INDBML_ASSIGN_OR_RETURN(exec::OperatorPtr root, planner.Instantiate(0));
    exec::ExecContext ctx;
    ctx.catalog = &catalog_;
    return exec::DrainOperator(root.get(), &ctx);
  };
  auto result = run();

  int64_t wall_micros = stopwatch.ElapsedMicros();
  metrics::Registry& registry = metrics::Registry::Global();
  registry.counter("engine.queries")->Increment();
  registry.histogram("engine.query_micros")->Record(wall_micros);
  if (profile != nullptr) {
    int64_t peak = MemoryTracker::Global().peak_bytes();
    profile->set_wall_nanos(wall_micros * 1000);
    profile->set_peak_memory_bytes(peak);
    registry.gauge("memory.query_peak_bytes")->Set(peak);
  }
  return result;
}

Result<std::string> QueryEngine::ExplainAnalyze(const std::string& sql) {
  const Options opts = options();
  INDBML_ASSIGN_OR_RETURN(auto plan, PlanQuery(sql, opts));
  exec::QueryProfile profile;
  INDBML_ASSIGN_OR_RETURN(auto result, ExecutePlan(*plan, opts, &profile));
  (void)result;
  return profile.ToString();
}

Result<std::string> QueryEngine::Explain(const std::string& sql) {
  const Options opts = options();
  INDBML_ASSIGN_OR_RETURN(auto plan, PlanQuery(sql, opts));
  Optimizer optimizer(opts.optimizer);
  PlanAnalysis analysis = optimizer.Analyze(*plan);
  std::string out = plan->ToString();
  out += analysis.parallel_safe ? "[parallel-safe]\n" : "[serial]\n";
  return out;
}

}  // namespace indbml::sql
