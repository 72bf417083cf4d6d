#include "benchlib/approaches.h"

#include <algorithm>
#include <cstring>

#include "common/config.h"
#include "common/memory_tracker.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "exec/morsel.h"
#include "exec/scan.h"
#include "integration/capi_operator.h"
#include "integration/external_client.h"
#include "integration/udf.h"
#include "mltosql/mltosql.h"
#include "modeljoin/register.h"
#include "nn/model_meta.h"

namespace indbml::benchlib {

const char* ApproachName(Approach approach) {
  switch (approach) {
    case Approach::kModelJoinCpu:
      return "ModelJoin_CPU";
    case Approach::kModelJoinGpu:
      return "ModelJoin_GPU";
    case Approach::kCApiCpu:
      return "TF_CAPI_CPU";
    case Approach::kCApiGpu:
      return "TF_CAPI_GPU";
    case Approach::kExternalCpu:
      return "TF_CPU";
    case Approach::kExternalGpu:
      return "TF_GPU";
    case Approach::kUdf:
      return "UDF";
    case Approach::kMlToSql:
      return "ML-To-SQL";
  }
  return "?";
}

std::vector<Approach> AllApproaches() {
  return {Approach::kModelJoinCpu, Approach::kModelJoinGpu, Approach::kCApiCpu,
          Approach::kCApiGpu,      Approach::kExternalCpu,  Approach::kExternalGpu,
          Approach::kUdf,          Approach::kMlToSql};
}

bool IsGpuApproach(Approach approach) {
  return approach == Approach::kModelJoinGpu || approach == Approach::kCApiGpu ||
         approach == Approach::kExternalGpu;
}

Result<ApproachContext> PrepareApproachContext(
    sql::QueryEngine* engine, const nn::Model* model, const std::string& model_name,
    const std::string& fact_table, const std::vector<std::string>& input_columns) {
  ApproachContext context;
  context.engine = engine;
  context.model = model;
  context.model_name = model_name;
  context.model_table = model_name + "_table";
  context.fact_table = fact_table;
  context.input_columns = input_columns;

  mltosql::MlToSql framework(model, context.model_table);
  INDBML_RETURN_NOT_OK(framework.Deploy(engine));
  engine->models()->Register(nn::MetaOf(*model, model_name));

  INDBML_ASSIGN_OR_RETURN(auto bytes, model->SaveToBytes());
  context.model_bytes =
      std::make_shared<const std::vector<uint8_t>>(std::move(bytes));

  modeljoin::RegisterNativeModelJoin(engine);
  context.gpu = modeljoin::DefaultDevice("gpu");
  return context;
}

namespace {

std::vector<std::string> PredictionNames(int64_t out_dim) {
  if (out_dim == 1) return {"prediction"};
  std::vector<std::string> names;
  for (int64_t i = 0; i < out_dim; ++i) {
    names.push_back(StrFormat("prediction_%lld", static_cast<long long>(i)));
  }
  return names;
}

/// Sums all prediction columns of a result.
Result<double> PredictionChecksum(const exec::QueryResult& result) {
  double sum = 0;
  bool found = false;
  for (size_t c = 0; c < result.names.size(); ++c) {
    if (result.names[c].rfind("prediction", 0) != 0) continue;
    found = true;
    for (const exec::DataChunk& chunk : result.chunks) {
      const exec::Vector& col = chunk.column(static_cast<int64_t>(c));
      const float* data = col.floats();
      for (int64_t r = 0; r < col.size(); ++r) sum += data[r];
    }
  }
  if (!found) return Status::ExecutionError("result has no prediction column");
  return sum;
}

/// Builds and runs a morsel-bound scan + wrapper-operator plan (the C-API
/// and UDF approaches, which are engine operators but not SQL-reachable) on
/// the engine's morsel pipeline.
Result<exec::QueryResult> RunOperatorPlan(
    const ApproachContext& context,
    const std::function<Result<exec::OperatorPtr>(exec::OperatorPtr child, int)>&
        wrap) {
  INDBML_ASSIGN_OR_RETURN(storage::TablePtr fact,
                          context.engine->catalog()->GetTable(context.fact_table));
  std::vector<int> scan_columns;
  INDBML_ASSIGN_OR_RETURN(int id_col, fact->ColumnIndex(context.id_column));
  scan_columns.push_back(id_col);
  for (const std::string& name : context.input_columns) {
    INDBML_ASSIGN_OR_RETURN(int col, fact->ColumnIndex(name));
    scan_columns.push_back(col);
  }

  exec::WorkerPlanFactory factory = [&](int worker) -> Result<exec::OperatorPtr> {
    auto scan = std::make_unique<exec::TableScanOperator>(
        exec::TableScanOperator::MorselBound{}, fact, scan_columns,
        std::vector<exec::ScanPredicate>{});
    return wrap(std::move(scan), worker);
  };
  exec::MorselSource source(exec::MakeMorsels(*fact, kDefaultMorselRows));
  const int workers = context.engine->EffectiveWorkers();
  std::shared_ptr<ThreadPool> pool = context.engine->SharedPool(workers);
  return exec::ExecutePipeline(factory, &source, workers,
                               context.engine->catalog(), pool.get());
}

Result<exec::QueryResult> Execute(Approach approach, const ApproachContext& context,
                                  int64_t* extra_peak_bytes,
                                  double* modeled_overhead_seconds) {
  const int64_t out_dim = context.model->output_dim();
  const int64_t in_width = static_cast<int64_t>(context.input_columns.size());
  switch (approach) {
    case Approach::kModelJoinCpu:
    case Approach::kModelJoinGpu: {
      std::string sql = "SELECT " + context.id_column;
      for (const std::string& p : PredictionNames(out_dim)) sql += ", " + p;
      sql += " FROM " + context.fact_table + " MODEL JOIN " + context.model_table +
             " USING MODEL '" + context.model_name + "' DEVICE '" +
             (approach == Approach::kModelJoinGpu ? "gpu" : "cpu") + "' PREDICT (" +
             Join(context.input_columns, ", ") + ")";
      return context.engine->ExecuteQuery(sql);
    }
    case Approach::kCApiCpu:
    case Approach::kCApiGpu: {
      std::string device = approach == Approach::kCApiGpu ? "gpu" : "cpu";
      std::vector<int> input_idx;
      for (int64_t i = 0; i < in_width; ++i) {
        input_idx.push_back(static_cast<int>(1 + i));  // after the id column
      }
      return RunOperatorPlan(
          context, [&](exec::OperatorPtr child, int) -> Result<exec::OperatorPtr> {
            return exec::OperatorPtr(
                std::make_unique<integration::CApiInferenceOperator>(
                    std::move(child), context.model_bytes, device, input_idx,
                    PredictionNames(out_dim)));
          });
    }
    case Approach::kExternalCpu:
    case Approach::kExternalGpu: {
      std::string device = approach == Approach::kExternalGpu ? "gpu" : "cpu";
      integration::TransferStats stats;
      auto result = integration::RunExternalInference(
          context.engine, context.fact_table, context.id_column,
          context.input_columns, *context.model, device, &stats);
      // Client-side ("Python environment") row materialisation counts
      // towards this approach's footprint (paper §6.2.2 measures the peak
      // memory of the Python process for TF(Python)).
      *extra_peak_bytes = stats.client_peak_bytes;
      *modeled_overhead_seconds = stats.modeled_overhead_seconds;
      return result;
    }
    case Approach::kUdf: {
      auto stats = std::make_shared<integration::InterpreterStats>();
      INDBML_ASSIGN_OR_RETURN(
          auto udf, integration::MakeInterpretedInferenceUdf(
                        context.model_bytes, in_width, out_dim, stats));
      std::vector<int> input_idx;
      for (int64_t i = 0; i < in_width; ++i) {
        input_idx.push_back(static_cast<int>(1 + i));
      }
      std::vector<exec::DataType> out_types(static_cast<size_t>(out_dim),
                                            exec::DataType::kFloat);
      auto result = RunOperatorPlan(
          context, [&](exec::OperatorPtr child, int) -> Result<exec::OperatorPtr> {
            return exec::OperatorPtr(std::make_unique<integration::UdfOperator>(
                std::move(child), udf, input_idx, PredictionNames(out_dim),
                out_types));
          });
      *modeled_overhead_seconds = stats->modeled_overhead_seconds;
      return result;
    }
    case Approach::kMlToSql: {
      mltosql::MlToSql framework(context.model, context.model_table);
      mltosql::FactTableInfo info;
      info.table = context.fact_table;
      info.id_column = context.id_column;
      info.input_columns = context.input_columns;
      INDBML_ASSIGN_OR_RETURN(std::string sql, framework.GenerateInferenceSql(info));
      return context.engine->ExecuteQuery(sql);
    }
  }
  return Status::Internal("unhandled approach");
}

}  // namespace

Result<RunMeasurement> RunApproach(Approach approach,
                                   const ApproachContext& context) {
  MemoryTracker& tracker = MemoryTracker::Global();
  int64_t baseline = tracker.current_bytes();
  tracker.ResetPeak();
  if (context.gpu != nullptr) context.gpu->ResetStats();

  Stopwatch watch;
  int64_t extra_peak_bytes = 0;
  double modeled_overhead_seconds = 0;
  INDBML_ASSIGN_OR_RETURN(auto result, Execute(approach, context, &extra_peak_bytes,
                                               &modeled_overhead_seconds));
  double wall = watch.ElapsedSeconds();

  RunMeasurement m;
  m.wall_seconds = wall;
  m.rows = result.num_rows;
  INDBML_ASSIGN_OR_RETURN(m.prediction_checksum, PredictionChecksum(result));
  m.peak_delta_bytes = tracker.peak_bytes() - baseline + extra_peak_bytes;
  if (context.gpu != nullptr) m.gpu_stats = context.gpu->stats();
  if (IsGpuApproach(approach)) {
    // Replace the host time spent emulating device work with the modeled
    // device time. The run can never finish faster than the (serialised)
    // device needs, so the modeled device time is a lower bound.
    m.adjusted_seconds =
        std::max(wall - m.gpu_stats.real_seconds + m.gpu_stats.modeled_seconds,
                 m.gpu_stats.modeled_seconds);
  } else {
    m.adjusted_seconds = wall;
  }
  // Interpreter/ODBC cost model for the Python-shaped baselines.
  m.adjusted_seconds += modeled_overhead_seconds;
  return m;
}

}  // namespace indbml::benchlib
