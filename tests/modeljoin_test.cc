#include "modeljoin/register.h"

#include <gtest/gtest.h>

#include <map>

#include "benchlib/workloads.h"
#include "mltosql/mltosql.h"
#include "nn/model.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using mltosql::MlToSql;
using sql::QueryEngine;

std::map<int64_t, std::vector<float>> Reference(const nn::Model& model,
                                                const storage::Table& fact,
                                                const std::vector<int>& cols) {
  int64_t n = fact.num_rows();
  nn::Tensor x = nn::Tensor::Matrix(n, model.input_width());
  for (int64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      x.At(r, static_cast<int64_t>(c)) = fact.column(cols[c]).GetFloat(r);
    }
  }
  auto pred = model.Predict(x);
  INDBML_CHECK(pred.ok());
  int id_col = *fact.ColumnIndex("id");
  std::map<int64_t, std::vector<float>> by_id;
  for (int64_t r = 0; r < n; ++r) {
    std::vector<float> row;
    for (int64_t c = 0; c < model.output_dim(); ++c) row.push_back(pred->At(r, c));
    by_id[fact.column(id_col).GetInt64(r)] = row;
  }
  return by_id;
}

struct DeviceCase {
  const char* device;
  bool multi_worker;
};

class ModelJoinTest : public ::testing::TestWithParam<DeviceCase> {
 protected:
  void SetUp() override {
    QueryEngine::Options options;
    if (GetParam().multi_worker) {
      // Small morsels so the few-thousand-row fact tables spread inference
      // over every worker.
      options.worker_threads = 4;
      options.morsel_rows = 256;
    } else {
      options.worker_threads = 1;
    }
    engine_ = std::make_unique<QueryEngine>(options);
    modeljoin::RegisterNativeModelJoin(engine_.get());
  }

  std::unique_ptr<QueryEngine> engine_;
};

TEST_P(ModelJoinTest, DenseMatchesReference) {
  auto fact = benchlib::MakeIrisTable("fact", 5000);
  ASSERT_OK(engine_->catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 21));
  MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(engine_.get()));
  engine_->models()->Register(nn::MetaOf(model, "dense16"));

  std::string sql =
      "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'dense16' "
      "DEVICE '" +
      std::string(GetParam().device) +
      "' PREDICT (sepal_length, sepal_width, petal_length, petal_width)";
  ASSERT_OK_AND_ASSIGN(auto result, engine_->ExecuteQuery(sql));
  ASSERT_EQ(result.num_rows, 5000);

  auto reference = Reference(model, *fact, {1, 2, 3, 4});
  ASSERT_OK_AND_ASSIGN(int id_col, result.ColumnIndex("id"));
  ASSERT_OK_AND_ASSIGN(int pred_col, result.ColumnIndex("prediction"));
  for (int64_t r = 0; r < result.num_rows; ++r) {
    int64_t id = result.GetValue(r, id_col).i;
    ASSERT_NEAR(result.GetValue(r, pred_col).f, reference.at(id)[0], 1e-4)
        << "row " << id;
  }
}

TEST_P(ModelJoinTest, LstmMatchesReference) {
  auto fact = benchlib::MakeSinusTable("series", 3000, 3);
  ASSERT_OK(engine_->catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeLstmBenchmarkModel(12, 3, 33));
  MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(engine_.get()));
  engine_->models()->Register(nn::MetaOf(model, "lstm12"));

  std::string sql =
      "SELECT id, prediction FROM series MODEL JOIN m USING MODEL 'lstm12' "
      "DEVICE '" +
      std::string(GetParam().device) + "' PREDICT (x0, x1, x2)";
  ASSERT_OK_AND_ASSIGN(auto result, engine_->ExecuteQuery(sql));
  ASSERT_EQ(result.num_rows, 3000);

  auto reference = Reference(model, *fact, {1, 2, 3});
  ASSERT_OK_AND_ASSIGN(int id_col, result.ColumnIndex("id"));
  ASSERT_OK_AND_ASSIGN(int pred_col, result.ColumnIndex("prediction"));
  for (int64_t r = 0; r < result.num_rows; ++r) {
    int64_t id = result.GetValue(r, id_col).i;
    ASSERT_NEAR(result.GetValue(r, pred_col).f, reference.at(id)[0], 1e-4)
        << "row " << id;
  }
}

TEST_P(ModelJoinTest, ComposesWithDownstreamAggregation) {
  // The ModelJoin is a regular operator usable in arbitrary queries (§5.1):
  // aggregate the predictions per class.
  auto fact = benchlib::MakeIrisTable("fact", 600);
  ASSERT_OK(engine_->catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 5));
  MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(engine_.get()));
  engine_->models()->Register(nn::MetaOf(model, "dense8"));

  std::string sql =
      "SELECT class, AVG(prediction) AS avg_pred, COUNT(*) AS n FROM fact "
      "MODEL JOIN m USING MODEL 'dense8' DEVICE '" +
      std::string(GetParam().device) +
      "' PREDICT (sepal_length, sepal_width, petal_length, petal_width) "
      "GROUP BY class ORDER BY class";
  ASSERT_OK_AND_ASSIGN(auto result, engine_->ExecuteQuery(sql));
  ASSERT_EQ(result.num_rows, 3);
  EXPECT_EQ(result.GetValue(0, 2).i, 200);
}

INSTANTIATE_TEST_SUITE_P(
    Devices, ModelJoinTest,
    ::testing::Values(DeviceCase{"cpu", true}, DeviceCase{"cpu", false},
                      DeviceCase{"gpu", true}, DeviceCase{"gpu", false}),
    [](const ::testing::TestParamInfo<DeviceCase>& info) {
      return std::string(info.param.device) +
             (info.param.multi_worker ? "Parallel" : "Serial");
    });

TEST(ModelJoinErrorsTest, RejectsPairIdModelTable) {
  QueryEngine engine;
  modeljoin::RegisterNativeModelJoin(&engine);
  auto fact = benchlib::MakeIrisTable("fact", 64);
  ASSERT_OK(engine.catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(4, 1, 5));
  mltosql::MlToSqlOptions basic;
  basic.unique_node_ids = false;
  MlToSql framework(&model, "m", basic);
  ASSERT_OK(framework.Deploy(&engine));
  engine.models()->Register(nn::MetaOf(model, "d"));
  auto result = engine.ExecuteQuery(
      "SELECT prediction FROM fact MODEL JOIN m USING MODEL 'd' "
      "PREDICT (sepal_length, sepal_width, petal_length, petal_width)");
  EXPECT_FALSE(result.ok());
}

TEST(ModelJoinErrorsTest, RejectsUnregisteredModel) {
  QueryEngine engine;
  modeljoin::RegisterNativeModelJoin(&engine);
  auto fact = benchlib::MakeIrisTable("fact", 16);
  ASSERT_OK(engine.catalog()->CreateTable(fact));
  auto result = engine.ExecuteQuery(
      "SELECT * FROM fact MODEL JOIN fact USING MODEL 'missing'");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ModelJoinErrorsTest, RejectsWrongInputWidth) {
  QueryEngine engine;
  modeljoin::RegisterNativeModelJoin(&engine);
  auto fact = benchlib::MakeIrisTable("fact", 16);
  ASSERT_OK(engine.catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(4, 1, 5));
  MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(&engine));
  engine.models()->Register(nn::MetaOf(model, "d"));
  auto result = engine.ExecuteQuery(
      "SELECT * FROM fact MODEL JOIN m USING MODEL 'd' PREDICT (sepal_length)");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

TEST(ModelJoinErrorsTest, NoImplementationRegistered) {
  QueryEngine engine;  // no RegisterNativeModelJoin
  auto fact = benchlib::MakeIrisTable("fact", 16);
  ASSERT_OK(engine.catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(4, 1, 5));
  MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(&engine));
  engine.models()->Register(nn::MetaOf(model, "d"));
  auto result = engine.ExecuteQuery(
      "SELECT * FROM fact MODEL JOIN m USING MODEL 'd' "
      "PREDICT (sepal_length, sepal_width, petal_length, petal_width)");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
}

}  // namespace
}  // namespace indbml
