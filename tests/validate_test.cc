// Tests for the runtime invariant validators (INDBML_VALIDATE=1): chunk
// checks between operators, logical-plan validation after optimizer passes,
// shared-model shape invariants, and the zero-cost-when-disabled contract.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/report.h"
#include "common/config.h"
#include "common/metrics.h"
#include "common/validation.h"
#include "exec/validate.h"
#include "inference/shared_model.h"
#include "inference/validate.h"
#include "mltosql/mltosql.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "sql/optimizer.h"
#include "sql/plan_validate.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using exec::DataChunk;
using exec::DataType;
using exec::Value;

/// Every test in this file restores the environment-driven default.
class ValidationTest : public ::testing::Test {
 protected:
  void TearDown() override { validation::SetEnabledForTesting(-1); }
};

DataChunk MakeChunk(const std::vector<DataType>& types, int64_t rows) {
  DataChunk chunk;
  chunk.Reset(types);
  for (int64_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < types.size(); ++c) {
      switch (types[c]) {
        case DataType::kInt64:
          chunk.column(static_cast<int64_t>(c)).Append(Value::Int64(r));
          break;
        case DataType::kFloat:
          chunk.column(static_cast<int64_t>(c)).Append(Value::Float(0.5f));
          break;
        case DataType::kBool:
          chunk.column(static_cast<int64_t>(c)).Append(Value::Bool(true));
          break;
      }
    }
  }
  chunk.size = rows;
  return chunk;
}

TEST_F(ValidationTest, WellFormedChunkPasses) {
  DataChunk chunk = MakeChunk({DataType::kInt64, DataType::kFloat}, 4);
  EXPECT_OK(exec::ValidateChunk(chunk, {DataType::kInt64, DataType::kFloat},
                                "test"));
}

TEST_F(ValidationTest, MismatchedColumnLengthsCaught) {
  DataChunk chunk = MakeChunk({DataType::kInt64, DataType::kFloat}, 4);
  chunk.column(1).Append(Value::Float(1.0f));  // column 1 now longer
  Status status = exec::ValidateChunk(
      chunk, {DataType::kInt64, DataType::kFloat}, "test");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("length"), std::string::npos)
      << status.ToString();
}

TEST_F(ValidationTest, OversizedChunkCaught) {
  EXPECT_OK(exec::ValidateChunk(MakeChunk({DataType::kInt64}, kDefaultVectorSize),
                                {DataType::kInt64}, "test"));
  Status status = exec::ValidateChunk(
      MakeChunk({DataType::kInt64}, kDefaultVectorSize + 1), {DataType::kInt64},
      "test");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("vector size"), std::string::npos)
      << status.ToString();
}

TEST_F(ValidationTest, ColumnTypeMismatchCaught) {
  DataChunk chunk = MakeChunk({DataType::kInt64, DataType::kFloat}, 2);
  Status status = exec::ValidateChunk(
      chunk, {DataType::kFloat, DataType::kFloat}, "test");
  EXPECT_FALSE(status.ok());
}

TEST_F(ValidationTest, NonFiniteFloatCaughtUnlessAllowed) {
  DataChunk chunk = MakeChunk({DataType::kFloat}, 3);
  chunk.column(0).floats()[1] = std::nanf("");
  Status status = exec::ValidateChunk(chunk, {DataType::kFloat}, "test");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("non-finite"), std::string::npos)
      << status.ToString();

  exec::ChunkValidationOptions model_output;
  model_output.allow_non_finite = true;
  EXPECT_OK(exec::ValidateChunk(chunk, {DataType::kFloat}, "test",
                                model_output));
}

TEST_F(ValidationTest, SelectionIndicesBoundsChecked) {
  const int32_t good[] = {0, 3, 7};
  EXPECT_OK(exec::ValidateSelection(good, 3, 8, "test"));
  const int32_t out_of_range[] = {0, 8};
  EXPECT_FALSE(exec::ValidateSelection(out_of_range, 2, 8, "test").ok());
  const int32_t negative[] = {-1};
  EXPECT_FALSE(exec::ValidateSelection(negative, 1, 8, "test").ok());
}

// ---------------------------------------------------------------------------
// Logical-plan validation.

/// Engine with a small fact table for planning test queries.
class PlanValidationTest : public ValidationTest {
 protected:
  void SetUp() override {
    table_ = testutil::MakeTable(
        "t", {{"id", storage::DataType::kInt64}, {"x", storage::DataType::kFloat}},
        {{testutil::I(1), testutil::F(1.5f)},
         {testutil::I(2), testutil::F(2.5f)},
         {testutil::I(3), testutil::F(3.5f)}});
    ASSERT_OK(engine_.catalog()->CreateTable(table_));
  }

  /// Hand-built Scan(t) node with binder ids 1 (id) and 2 (x).
  sql::LogicalOpPtr MakeScan() {
    auto scan = std::make_unique<sql::LogicalOp>();
    scan->kind = sql::LogicalKind::kScan;
    scan->table = table_;
    scan->outputs = {{1, "id", exec::DataType::kInt64},
                     {2, "x", exec::DataType::kFloat}};
    scan->scan_columns = {0, 1};
    return scan;
  }

  sql::QueryEngine engine_;
  storage::TablePtr table_;
};

TEST_F(PlanValidationTest, OptimizedPlanIsValid) {
  ASSERT_OK_AND_ASSIGN(sql::LogicalOpPtr plan,
                       engine_.PlanQuery("SELECT id, x FROM t WHERE id > 1"));
  EXPECT_OK(sql::ValidateLogicalPlan(*plan));
}

TEST_F(PlanValidationTest, DanglingColumnReferenceCaught) {
  // Filter whose condition references a column id no child produces — the
  // signature of a rewrite that re-bound expressions incorrectly.
  auto filter = std::make_unique<sql::LogicalOp>();
  filter->kind = sql::LogicalKind::kFilter;
  filter->children.push_back(MakeScan());
  filter->outputs = filter->children[0]->outputs;
  filter->condition =
      exec::MakeColumnRef(9999, exec::DataType::kBool, "ghost");
  Status status = sql::ValidateLogicalPlan(*filter);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("9999"), std::string::npos)
      << status.ToString();
}

TEST_F(PlanValidationTest, WrongChildCountCaught) {
  sql::LogicalOp broken;
  broken.kind = sql::LogicalKind::kFilter;  // filter needs exactly one child
  broken.outputs = {{1, "id", exec::DataType::kInt64}};
  EXPECT_FALSE(sql::ValidateLogicalPlan(broken).ok());
}

TEST_F(PlanValidationTest, ScanColumnBookkeepingCaught) {
  sql::LogicalOpPtr scan = MakeScan();
  EXPECT_OK(sql::ValidateLogicalPlan(*scan));
  scan->scan_columns.pop_back();  // outputs and scan_columns out of sync
  EXPECT_FALSE(sql::ValidateLogicalPlan(*scan).ok());
}

TEST_F(PlanValidationTest, BrokenRewriteCaughtInsideOptimize) {
  validation::SetEnabledForTesting(1);
  ASSERT_OK_AND_ASSIGN(sql::LogicalOpPtr plan,
                       engine_.PlanQuery("SELECT id FROM t"));
  // Corrupt the bound plan, then re-run the optimizer: the validation hook
  // after each pass must refuse it instead of silently planning garbage.
  plan->outputs.clear();
  sql::Optimizer optimizer;
  auto result = optimizer.Optimize(std::move(plan));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("invalid plan"), std::string::npos)
      << result.status().ToString();
}

TEST_F(PlanValidationTest, OptimizeWithValidationAcceptsGoodPlans) {
  validation::SetEnabledForTesting(1);
  ASSERT_OK_AND_ASSIGN(
      auto result,
      engine_.ExecuteQuery("SELECT id, x FROM t WHERE id > 1 ORDER BY id"));
  EXPECT_EQ(result.num_rows, 2);
}

// ---------------------------------------------------------------------------
// Shared-model shape invariants.

TEST_F(ValidationTest, SharedModelShapeInvariantsHold) {
  auto model_or = nn::MakeDenseBenchmarkModel(/*width=*/8, /*depth=*/2, 11);
  ASSERT_TRUE(model_or.ok());
  nn::Model model = std::move(model_or).ValueOrDie();
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(storage::TablePtr table, framework.BuildModelTable());
  auto cpu = device::MakeCpuDevice();
  ASSERT_OK_AND_ASSIGN(auto shared, inference::SharedModel::FromTable(
                                        nn::MetaOf(model, "m"), cpu.get(), 64,
                                        *table, /*pool=*/nullptr));
  EXPECT_OK(inference::ValidateSharedModelShape(*shared));
}

TEST_F(ValidationTest, SharedModelBuildRunsShapeCheckWhenEnabled) {
  validation::SetEnabledForTesting(1);
  auto model_or = nn::MakeDenseBenchmarkModel(/*width=*/6, /*depth=*/2, 13);
  ASSERT_TRUE(model_or.ok());
  nn::Model model = std::move(model_or).ValueOrDie();
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(storage::TablePtr table, framework.BuildModelTable());
  auto cpu = device::MakeCpuDevice();
  EXPECT_OK(inference::SharedModel::FromTable(nn::MetaOf(model, "m"),
                                              cpu.get(), 32, *table,
                                              /*pool=*/nullptr)
                .status());
}

// ---------------------------------------------------------------------------
// Cost contract: with validation disabled nothing is checked (the planner
// never instantiates ValidatingOperator), so the chunk counter stays flat.

TEST_F(PlanValidationTest, DisabledValidationChecksNothing) {
  metrics::Counter* checked =
      metrics::Registry::Global().counter("validate.chunks_checked");

  validation::SetEnabledForTesting(0);
  int64_t before = checked->value();
  ASSERT_OK_AND_ASSIGN(auto off_result,
                       engine_.ExecuteQuery("SELECT id, x FROM t"));
  EXPECT_EQ(off_result.num_rows, 3);
  int64_t off_delta = checked->value() - before;
  EXPECT_EQ(off_delta, 0);

  validation::SetEnabledForTesting(1);
  before = checked->value();
  ASSERT_OK_AND_ASSIGN(auto on_result,
                       engine_.ExecuteQuery("SELECT id, x FROM t"));
  EXPECT_EQ(on_result.num_rows, 3);
  int64_t on_delta = checked->value() - before;
  EXPECT_GT(on_delta, 0);

  // Benchlib smoke row: the overhead table every bench could emit.
  benchlib::ReportTable report("validate_smoke",
                               {"mode", "chunks_checked_delta"});
  report.AddRow({"off", std::to_string(off_delta)});
  report.AddRow({"on", std::to_string(on_delta)});
  report.Finish();
}

}  // namespace
}  // namespace indbml
