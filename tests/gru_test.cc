#include <gtest/gtest.h>

#include <cmath>

#include "benchlib/approaches.h"
#include "benchlib/workloads.h"
#include "inference/validate.h"
#include "mltosql/mltosql.h"
#include "nn/model.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

/// GRU layers are the second recurrent class the paper names as relevant
/// for relational workloads (§2). These tests validate the extension across
/// every inference path against the hand-written reference equations.

TEST(GruModelTest, HandComputedSingleUnitTwoSteps) {
  nn::ModelBuilder builder = nn::ModelBuilder::TimeSeries(2, 1);
  builder.AddGru(1);
  ASSERT_OK_AND_ASSIGN(nn::Model model, builder.Build(1));
  auto& gru = model.mutable_layers()[0].gru;
  float wz = 0.4f, wr = -0.2f, wh = 0.9f;
  float uz = 0.3f, ur = 0.5f, uh = -0.6f;
  float bz = 0.05f, br = -0.02f, bh = 0.1f;
  gru.kernel[nn::kGruZ].At(0, 0) = wz;
  gru.kernel[nn::kGruR].At(0, 0) = wr;
  gru.kernel[nn::kGruH].At(0, 0) = wh;
  gru.recurrent[nn::kGruZ].At(0, 0) = uz;
  gru.recurrent[nn::kGruR].At(0, 0) = ur;
  gru.recurrent[nn::kGruH].At(0, 0) = uh;
  gru.bias[nn::kGruZ][0] = bz;
  gru.bias[nn::kGruR][0] = br;
  gru.bias[nn::kGruH][0] = bh;

  float x0 = 0.8f;
  float x1 = -0.3f;
  nn::Tensor x = nn::Tensor::Matrix(1, 2);
  x.At(0, 0) = x0;
  x.At(0, 1) = x1;
  ASSERT_OK_AND_ASSIGN(nn::Tensor y, model.Predict(x));

  auto sig = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
  // Step 1 (h0 = 0).
  float z1 = sig(x0 * wz + bz);
  float h1_cand = std::tanh(x0 * wh + bh);
  float h1 = (1.0f - z1) * h1_cand;
  // Step 2.
  float z2 = sig(x1 * wz + h1 * uz + bz);
  float r2 = sig(x1 * wr + h1 * ur + br);
  float h2_cand = std::tanh(x1 * wh + (r2 * h1) * uh + bh);
  float h2 = z2 * h1 + (1.0f - z2) * h2_cand;
  EXPECT_NEAR(y.At(0, 0), h2, 1e-6);
}

TEST(GruModelTest, SerializationRoundTrip) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeGruBenchmarkModel(6, 3, 21));
  ASSERT_OK_AND_ASSIGN(auto bytes, model.SaveToBytes());
  ASSERT_OK_AND_ASSIGN(nn::Model loaded,
                       nn::Model::LoadFromBytes(bytes.data(), bytes.size()));
  EXPECT_EQ(loaded.NumParameters(), model.NumParameters());
  EXPECT_EQ(loaded.ToString(), "gru(w=6,t=3)");

  nn::Tensor x = nn::Tensor::Matrix(5, 3);
  for (int64_t i = 0; i < x.size(); ++i) x[i] = 0.05f * static_cast<float>(i);
  ASSERT_OK_AND_ASSIGN(auto y1, model.Predict(x));
  ASSERT_OK_AND_ASSIGN(auto y2, loaded.Predict(x));
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(GruModelTest, ModelTableShape) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeGruBenchmarkModel(5, 3));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildModelTable());
  // 1x5 kernel + 5x5 recurrent + 5x1 dense output edges.
  EXPECT_EQ(table->num_rows(), 5 + 25 + 5);
  ASSERT_OK_AND_ASSIGN(auto report,
                       inference::ValidateModelTable(*table, nn::MetaOf(model)));
  EXPECT_EQ(report.lstm_kernel_edges, 5);
  EXPECT_EQ(report.lstm_recurrent_edges, 25);
}

/// All eight approaches must agree on GRU inference, exactly as for dense
/// and LSTM models.
TEST(GruConsistencyTest, AllApproachesAgree) {
  sql::QueryEngine engine;
  const int64_t kRows = 2000;
  ASSERT_OK(engine.catalog()->CreateTable(benchlib::MakeSinusTable("fact", kRows, 3)));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeGruBenchmarkModel(7, 3, 123));
  ASSERT_OK_AND_ASSIGN(auto context,
                       benchlib::PrepareApproachContext(&engine, &model, "m", "fact",
                                                        {"x0", "x1", "x2"}));

  // Reference checksum.
  ASSERT_OK_AND_ASSIGN(auto fact, engine.catalog()->GetTable("fact"));
  nn::Tensor x = nn::Tensor::Matrix(kRows, 3);
  for (int64_t r = 0; r < kRows; ++r) {
    for (int c = 0; c < 3; ++c) x.At(r, c) = fact->column(c + 1).GetFloat(r);
  }
  ASSERT_OK_AND_ASSIGN(auto pred, model.Predict(x));
  double reference = 0;
  for (int64_t i = 0; i < pred.size(); ++i) reference += pred[i];

  for (benchlib::Approach approach : benchlib::AllApproaches()) {
    SCOPED_TRACE(benchlib::ApproachName(approach));
    ASSERT_OK_AND_ASSIGN(auto m, benchlib::RunApproach(approach, context));
    EXPECT_EQ(m.rows, kRows);
    EXPECT_NEAR(m.prediction_checksum, reference,
                1e-3 * (1.0 + std::fabs(reference)));
  }
}

TEST(GruMlToSqlTest, PairIdVariantAlsoMatches) {
  sql::QueryEngine engine;
  ASSERT_OK(engine.catalog()->CreateTable(benchlib::MakeSinusTable("fact", 300, 3)));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeGruBenchmarkModel(4, 3, 9));

  mltosql::MlToSqlOptions basic;
  basic.unique_node_ids = false;
  mltosql::MlToSql framework(&model, "m", basic);
  ASSERT_OK(framework.Deploy(&engine));
  mltosql::FactTableInfo info;
  info.table = "fact";
  info.input_columns = {"x0", "x1", "x2"};
  ASSERT_OK_AND_ASSIGN(std::string sqltext, framework.GenerateInferenceSql(info));
  ASSERT_OK_AND_ASSIGN(auto result, engine.ExecuteQuery(sqltext));
  ASSERT_EQ(result.num_rows, 300);

  ASSERT_OK_AND_ASSIGN(auto fact, engine.catalog()->GetTable("fact"));
  nn::Tensor x = nn::Tensor::Matrix(300, 3);
  for (int64_t r = 0; r < 300; ++r) {
    for (int c = 0; c < 3; ++c) x.At(r, c) = fact->column(c + 1).GetFloat(r);
  }
  ASSERT_OK_AND_ASSIGN(auto expected, model.Predict(x));
  ASSERT_OK_AND_ASSIGN(int id_col, result.ColumnIndex("id"));
  ASSERT_OK_AND_ASSIGN(int pred_col, result.ColumnIndex("prediction"));
  for (int64_t r = 0; r < result.num_rows; ++r) {
    int64_t id = result.GetValue(r, id_col).i;
    ASSERT_NEAR(result.GetValue(r, pred_col).f, expected[id], 1e-4) << "row " << id;
  }
}

TEST(GruModelTest, RejectsGruAfterDense) {
  nn::ModelBuilder builder(4);
  builder.AddDense(4, nn::Activation::kRelu).AddGru(4);
  EXPECT_FALSE(builder.Build().ok());
}

}  // namespace
}  // namespace indbml
