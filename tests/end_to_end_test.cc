#include <gtest/gtest.h>

#include <cmath>

#include "benchlib/approaches.h"
#include "benchlib/workloads.h"
#include "common/validation.h"
#include "mltosql/encoding.h"
#include "mltosql/mltosql.h"
#include "modeljoin/register.h"
#include "nn/model_meta.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

/// Full in-database pipelines combining several features, the way a
/// downstream user would compose them.
class EndToEndTest : public ::testing::Test {};

TEST_F(EndToEndTest, SelfJoinWideningFeedsMlToSqlLstm) {
  // Raw series -> widen via self-joins (paper §4) -> LSTM inference with
  // generated SQL -> compare against the reference.
  sql::QueryEngine engine;
  ASSERT_OK(engine.catalog()->CreateTable(benchlib::MakeRawSinusSeries("raw", 300)));

  std::string widen = benchlib::BuildSelfJoinSql("raw", 3);
  ASSERT_OK_AND_ASSIGN(auto wide, engine.ExecuteQuery(widen));
  auto windows = wide.ToTable("windows");
  windows->SetUniqueIdColumn("id");
  windows->SetSortedBy({"id"});
  engine.catalog()->CreateOrReplaceTable(windows);

  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeLstmBenchmarkModel(5, 3, 77));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(&engine));
  mltosql::FactTableInfo info;
  info.table = "windows";
  info.input_columns = {"x0", "x1", "x2"};
  ASSERT_OK_AND_ASSIGN(std::string sqltext, framework.GenerateInferenceSql(info));
  ASSERT_OK_AND_ASSIGN(auto result, engine.ExecuteQuery(sqltext));
  ASSERT_EQ(result.num_rows, 298);

  nn::Tensor x = nn::Tensor::Matrix(windows->num_rows(), 3);
  for (int64_t r = 0; r < windows->num_rows(); ++r) {
    for (int c = 0; c < 3; ++c) x.At(r, c) = windows->column(c + 1).GetFloat(r);
  }
  ASSERT_OK_AND_ASSIGN(auto expected, model.Predict(x));
  ASSERT_OK_AND_ASSIGN(int id_col, result.ColumnIndex("id"));
  ASSERT_OK_AND_ASSIGN(int pred_col, result.ColumnIndex("prediction"));
  for (int64_t r = 0; r < result.num_rows; ++r) {
    int64_t id = result.GetValue(r, id_col).i;
    // Window ids are the raw positions; they map 1:1 to the table order.
    ASSERT_NEAR(result.GetValue(r, pred_col).f, expected[id], 1e-4);
  }
}

TEST_F(EndToEndTest, MinMaxEncodingBeforeModelJoin) {
  // Encode in SQL, materialise, then infer with the native operator —
  // the encode-then-predict pipeline the paper's §4 references.
  sql::QueryEngine engine;
  modeljoin::RegisterNativeModelJoin(&engine);
  auto iris = benchlib::MakeIrisTable("iris", 450);
  ASSERT_OK(engine.catalog()->CreateTable(iris));

  ASSERT_OK_AND_ASSIGN(
      std::string encode_sql,
      mltosql::GenerateMinMaxEncodingSql(
          *iris, "id",
          {"sepal_length", "sepal_width", "petal_length", "petal_width"}));
  ASSERT_OK_AND_ASSIGN(auto encoded, engine.ExecuteQuery(encode_sql));
  auto scaled = encoded.ToTable("iris_scaled");
  scaled->SetUniqueIdColumn("id");
  scaled->SetSortedBy({"id"});
  engine.catalog()->CreateOrReplaceTable(scaled);

  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 13));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(&engine));
  engine.models()->Register(nn::MetaOf(model, "m"));

  ASSERT_OK_AND_ASSIGN(
      auto result,
      engine.ExecuteQuery(
          "SELECT id, prediction FROM iris_scaled MODEL JOIN m "
          "USING MODEL 'm' PREDICT (sepal_length, sepal_width, petal_length, "
          "petal_width)"));
  ASSERT_EQ(result.num_rows, 450);

  nn::Tensor x = nn::Tensor::Matrix(450, 4);
  for (int64_t r = 0; r < 450; ++r) {
    for (int c = 0; c < 4; ++c) x.At(r, c) = scaled->column(c + 1).GetFloat(r);
  }
  ASSERT_OK_AND_ASSIGN(auto expected, model.Predict(x));
  ASSERT_OK_AND_ASSIGN(int pred_col, result.ColumnIndex("prediction"));
  ASSERT_OK_AND_ASSIGN(int id_col, result.ColumnIndex("id"));
  for (int64_t r = 0; r < 450; ++r) {
    int64_t id = result.GetValue(r, id_col).i;
    ASSERT_NEAR(result.GetValue(r, pred_col).f, expected[id], 1e-4);
  }
}

TEST_F(EndToEndTest, ModelJoinInsideComplexQuery) {
  // The ModelJoin composes with filters, aggregation and ordering in one
  // statement ("can be used in arbitrary queries", §5.1).
  sql::QueryEngine engine;
  modeljoin::RegisterNativeModelJoin(&engine);
  ASSERT_OK(engine.catalog()->CreateTable(benchlib::MakeIrisTable("iris", 900)));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 3));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(&engine));
  engine.models()->Register(nn::MetaOf(model, "m"));

  ASSERT_OK_AND_ASSIGN(
      auto result,
      engine.ExecuteQuery(
          "SELECT class, COUNT(*) n, AVG(prediction) avg_p, MIN(prediction) min_p "
          "FROM (SELECT class, prediction FROM iris "
          "      MODEL JOIN m USING MODEL 'm' "
          "      PREDICT (sepal_length, sepal_width, petal_length, petal_width)) "
          "AS scored WHERE prediction > -1000.0 GROUP BY class ORDER BY class"));
  ASSERT_EQ(result.num_rows, 3);
  int64_t total = 0;
  for (int64_t r = 0; r < 3; ++r) {
    total += result.GetValue(r, 1).i;
    EXPECT_LE(result.GetValue(r, 3).AsDouble(), result.GetValue(r, 2).AsDouble());
  }
  EXPECT_EQ(total, 900);
}

TEST_F(EndToEndTest, JoinFanOutFeedsModelJoinInVectorSizedChunks) {
  // Every iris row matches the 7 dup rows of its class, so a join that
  // finished a probe row's matches past the 1024-row cut would hand the
  // ModelJoin an oversized chunk (and overran its staging buffer).
  validation::SetEnabledForTesting(1);
  sql::QueryEngine engine;
  modeljoin::RegisterNativeModelJoin(&engine);
  auto iris = benchlib::MakeIrisTable("iris", 3000);
  ASSERT_OK(engine.catalog()->CreateTable(iris));
  std::vector<std::vector<storage::Value>> dup_rows;
  for (int64_t r = 0; r < 21; ++r) {
    dup_rows.push_back({testutil::I(r % 3), testutil::F(static_cast<float>(r))});
  }
  ASSERT_OK(engine.catalog()->CreateTable(testutil::MakeTable(
      "dup", {{"k", storage::DataType::kInt64}, {"w", storage::DataType::kFloat}},
      dup_rows)));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 21));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(&engine));
  engine.models()->Register(nn::MetaOf(model, "m"));

  auto result = engine.ExecuteQuery(
      "SELECT id, w, prediction FROM (SELECT id, w, sepal_length, sepal_width, "
      "petal_length, petal_width FROM iris, dup WHERE class = k) AS j "
      "MODEL JOIN m USING MODEL 'm' "
      "PREDICT (sepal_length, sepal_width, petal_length, petal_width)");
  validation::SetEnabledForTesting(-1);
  ASSERT_OK(result.status());
  ASSERT_EQ(result->num_rows, 21000);

  nn::Tensor x = nn::Tensor::Matrix(3000, 4);
  for (int64_t r = 0; r < 3000; ++r) {
    for (int c = 0; c < 4; ++c) x.At(r, c) = iris->column(c + 1).GetFloat(r);
  }
  ASSERT_OK_AND_ASSIGN(auto expected, model.Predict(x));
  ASSERT_OK_AND_ASSIGN(int id_col, result->ColumnIndex("id"));
  ASSERT_OK_AND_ASSIGN(int pred_col, result->ColumnIndex("prediction"));
  for (int64_t r = 0; r < result->num_rows; ++r) {
    const int64_t id = result->GetValue(r, id_col).i;
    ASSERT_NEAR(result->GetValue(r, pred_col).f, expected[id], 1e-4) << "row " << r;
  }
}

TEST_F(EndToEndTest, TwoModelsInOneEngine) {
  // Several deployed models coexist; each MODEL JOIN picks its own.
  sql::QueryEngine engine;
  modeljoin::RegisterNativeModelJoin(&engine);
  ASSERT_OK(engine.catalog()->CreateTable(benchlib::MakeIrisTable("iris", 128)));

  ASSERT_OK_AND_ASSIGN(nn::Model a, nn::MakeDenseBenchmarkModel(4, 1, 1));
  ASSERT_OK_AND_ASSIGN(nn::Model b, nn::MakeDenseBenchmarkModel(4, 1, 2));
  mltosql::MlToSql fa(&a, "ta");
  mltosql::MlToSql fb(&b, "tb");
  ASSERT_OK(fa.Deploy(&engine));
  ASSERT_OK(fb.Deploy(&engine));
  engine.models()->Register(nn::MetaOf(a, "ma"));
  engine.models()->Register(nn::MetaOf(b, "mb"));

  const std::string predict =
      " PREDICT (sepal_length, sepal_width, petal_length, petal_width)";
  ASSERT_OK_AND_ASSIGN(auto ra, engine.ExecuteQuery(
      "SELECT prediction FROM iris MODEL JOIN ta USING MODEL 'ma'" + predict));
  ASSERT_OK_AND_ASSIGN(auto rb, engine.ExecuteQuery(
      "SELECT prediction FROM iris MODEL JOIN tb USING MODEL 'mb'" + predict));
  // Different seeds -> different predictions.
  EXPECT_NE(ra.GetValue(0, 0).f, rb.GetValue(0, 0).f);
}

TEST_F(EndToEndTest, LargeMultiBlockFactTable) {
  // Spans multiple storage blocks and several morsels; checksum parity
  // between the native operator and the runtime-backed operator.
  sql::QueryEngine engine;
  auto fact = benchlib::MakeIrisTable("fact", 50000);
  ASSERT_OK(engine.catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 4));
  ASSERT_OK_AND_ASSIGN(
      auto context,
      benchlib::PrepareApproachContext(
          &engine, &model, "m", "fact",
          {"sepal_length", "sepal_width", "petal_length", "petal_width"}));

  ASSERT_OK_AND_ASSIGN(auto native,
                       benchlib::RunApproach(benchlib::Approach::kModelJoinCpu,
                                             context));
  ASSERT_OK_AND_ASSIGN(
      auto capi, benchlib::RunApproach(benchlib::Approach::kCApiCpu, context));
  EXPECT_EQ(native.rows, 50000);
  EXPECT_EQ(capi.rows, 50000);
  EXPECT_NEAR(native.prediction_checksum, capi.prediction_checksum,
              1e-3 * (1 + std::fabs(native.prediction_checksum)));
}

}  // namespace
}  // namespace indbml
