#include "nn/decision_tree.h"

#include <gtest/gtest.h>

#include <cmath>

#include "benchlib/workloads.h"
#include "common/random.h"
#include "inference/validate.h"
#include "mltosql/tree_to_sql.h"
#include "mltosql/mltosql.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using nn::DecisionTree;
using nn::Tensor;

// ---------- CART training ----------

TEST(DecisionTreeTest, LearnsAxisAlignedStep) {
  // y = 1 if x0 >= 0.5 else 0: a single split suffices.
  Tensor x = Tensor::Matrix(100, 1);
  std::vector<float> y(100);
  for (int64_t i = 0; i < 100; ++i) {
    x.At(i, 0) = static_cast<float>(i) / 100.0f;
    y[static_cast<size_t>(i)] = x.At(i, 0) >= 0.5f ? 1.0f : 0.0f;
  }
  ASSERT_OK_AND_ASSIGN(DecisionTree tree, DecisionTree::TrainRegression(x, y));
  EXPECT_GE(tree.depth(), 1);
  float lo = 0.2f;
  float hi = 0.8f;
  EXPECT_NEAR(tree.Predict(&lo), 0.0f, 1e-5);
  EXPECT_NEAR(tree.Predict(&hi), 1.0f, 1e-5);
}

TEST(DecisionTreeTest, SeparatesIrisClasses) {
  std::vector<float> features;
  std::vector<int64_t> classes;
  benchlib::IrisFeatures(150, &features, &classes);
  Tensor x = Tensor::Matrix(150, 4);
  std::vector<float> y(150);
  for (int64_t r = 0; r < 150; ++r) {
    for (int c = 0; c < 4; ++c) x.At(r, c) = features[static_cast<size_t>(r * 4 + c)];
    y[static_cast<size_t>(r)] = static_cast<float>(classes[static_cast<size_t>(r)]);
  }
  ASSERT_OK_AND_ASSIGN(DecisionTree tree, DecisionTree::TrainRegression(x, y));
  int correct = 0;
  for (int64_t r = 0; r < 150; ++r) {
    float pred = tree.Predict(&x.At(r, 0));
    if (std::lround(pred) == classes[static_cast<size_t>(r)]) ++correct;
  }
  EXPECT_GE(correct, 135);  // >= 90% training accuracy
}

TEST(DecisionTreeTest, DepthLimitRespected) {
  Random rng(4);
  Tensor x = Tensor::Matrix(500, 2);
  std::vector<float> y(500);
  for (int64_t i = 0; i < 500; ++i) {
    x.At(i, 0) = rng.NextFloat(0, 1);
    x.At(i, 1) = rng.NextFloat(0, 1);
    y[static_cast<size_t>(i)] = rng.NextFloat(0, 1);
  }
  DecisionTree::TrainOptions options;
  options.max_depth = 3;
  ASSERT_OK_AND_ASSIGN(DecisionTree tree, DecisionTree::TrainRegression(x, y, options));
  EXPECT_LE(tree.depth(), 3);
}

TEST(DecisionTreeTest, FromNodesValidation) {
  std::vector<DecisionTree::Node> bad(1);
  bad[0].is_leaf = false;
  bad[0].feature = 0;
  bad[0].left = 0;  // self-reference
  bad[0].right = 0;
  EXPECT_FALSE(DecisionTree::FromNodes(bad, 1).ok());

  std::vector<DecisionTree::Node> leaf(1);
  leaf[0].value = 2.5f;
  ASSERT_OK_AND_ASSIGN(DecisionTree tree, DecisionTree::FromNodes(leaf, 1));
  float v = 0;
  EXPECT_FLOAT_EQ(tree.Predict(&v), 2.5f);
}

TEST(DecisionTreeTest, RejectsBadTrainingInput) {
  Tensor x = Tensor::Matrix(3, 2);
  std::vector<float> y(5);  // mismatch
  EXPECT_FALSE(DecisionTree::TrainRegression(x, y).ok());
}

// ---------- Tree-To-SQL ----------

class TreeToSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<sql::QueryEngine>();
    ASSERT_OK(engine_->catalog()->CreateTable(benchlib::MakeIrisTable("iris", 450)));
    ASSERT_OK_AND_ASSIGN(auto fact, engine_->catalog()->GetTable("iris"));
    fact_ = fact;

    std::vector<float> features;
    std::vector<int64_t> classes;
    benchlib::IrisFeatures(450, &features, &classes);
    Tensor x = Tensor::Matrix(450, 4);
    std::vector<float> y(450);
    for (int64_t r = 0; r < 450; ++r) {
      for (int c = 0; c < 4; ++c) {
        x.At(r, c) = features[static_cast<size_t>(r * 4 + c)];
      }
      y[static_cast<size_t>(r)] = static_cast<float>(classes[static_cast<size_t>(r)]);
    }
    ASSERT_OK_AND_ASSIGN(tree_, DecisionTree::TrainRegression(x, y));
  }

  storage::TablePtr fact_;
  std::unique_ptr<sql::QueryEngine> engine_;
  DecisionTree tree_;
  const std::vector<std::string> kFeatures = {"sepal_length", "sepal_width",
                                              "petal_length", "petal_width"};
};

TEST_F(TreeToSqlTest, RelationalTraversalMatchesInMemory) {
  mltosql::TreeToSql framework(&tree_, "iris_tree");
  ASSERT_OK(framework.Deploy(engine_.get()));

  mltosql::FactTableInfo info;
  info.table = "iris";
  info.input_columns = kFeatures;
  info.payload_columns = {"class"};
  ASSERT_OK_AND_ASSIGN(std::string sqltext, framework.GenerateInferenceSql(info));
  ASSERT_OK_AND_ASSIGN(auto result, engine_->ExecuteQuery(sqltext));
  ASSERT_EQ(result.num_rows, 450);

  ASSERT_OK_AND_ASSIGN(int id_col, result.ColumnIndex("id"));
  ASSERT_OK_AND_ASSIGN(int pred_col, result.ColumnIndex("prediction"));
  for (int64_t r = 0; r < result.num_rows; ++r) {
    int64_t id = result.GetValue(r, id_col).i;
    float row[4];
    for (int c = 0; c < 4; ++c) row[c] = fact_->column(c + 1).GetFloat(id);
    ASSERT_NEAR(result.GetValue(r, pred_col).f, tree_.Predict(row), 1e-5)
        << "row " << id;
  }
}

TEST_F(TreeToSqlTest, CaseExpressionMatchesInMemory) {
  mltosql::TreeToSql framework(&tree_, "iris_tree");
  ASSERT_OK_AND_ASSIGN(std::string expr, framework.GenerateCaseExpression(kFeatures));
  ASSERT_OK_AND_ASSIGN(
      auto result,
      engine_->ExecuteQuery("SELECT id, " + expr + " AS prediction FROM iris"));
  ASSERT_EQ(result.num_rows, 450);
  for (int64_t r = 0; r < result.num_rows; ++r) {
    int64_t id = result.GetValue(r, 0).i;
    float row[4];
    for (int c = 0; c < 4; ++c) row[c] = fact_->column(c + 1).GetFloat(id);
    ASSERT_NEAR(result.GetValue(r, 1).f, tree_.Predict(row), 1e-5);
  }
}

TEST_F(TreeToSqlTest, TreeTableShape) {
  mltosql::TreeToSql framework(&tree_, "t");
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildTreeTable());
  EXPECT_EQ(table->num_rows(), static_cast<int64_t>(tree_.nodes().size()));
  EXPECT_EQ(table->num_columns(), 6);
}

TEST_F(TreeToSqlTest, RejectsWrongFeatureCount) {
  mltosql::TreeToSql framework(&tree_, "t");
  mltosql::FactTableInfo info;
  info.table = "iris";
  info.input_columns = {"sepal_length"};
  EXPECT_FALSE(framework.GenerateInferenceSql(info).ok());
  EXPECT_FALSE(framework.GenerateCaseExpression({"a", "b"}).ok());
}

// ---------- model table validation (paper §5.5) ----------

TEST(ValidateModelTableTest, AcceptsGeneratedTables) {
  ASSERT_OK_AND_ASSIGN(auto dense, nn::MakeDenseBenchmarkModel(8, 2));
  mltosql::MlToSql framework(&dense, "m");
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildModelTable());
  ASSERT_OK_AND_ASSIGN(auto report,
                       inference::ValidateModelTable(*table, nn::MetaOf(dense)));
  EXPECT_EQ(report.input_edges, 4);
  EXPECT_EQ(report.dense_edges, 4 * 8 + 8 * 8 + 8);
  EXPECT_TRUE(report.sorted);

  ASSERT_OK_AND_ASSIGN(auto lstm, nn::MakeLstmBenchmarkModel(6, 3));
  mltosql::MlToSql lstm_framework(&lstm, "m2");
  ASSERT_OK_AND_ASSIGN(auto lstm_table, lstm_framework.BuildModelTable());
  ASSERT_OK_AND_ASSIGN(auto lstm_report,
                       inference::ValidateModelTable(*lstm_table, nn::MetaOf(lstm)));
  EXPECT_EQ(lstm_report.lstm_kernel_edges, 6);
  EXPECT_EQ(lstm_report.lstm_recurrent_edges, 36);
}

TEST(ValidateModelTableTest, RejectsWrongMeta) {
  ASSERT_OK_AND_ASSIGN(auto model, nn::MakeDenseBenchmarkModel(8, 2));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildModelTable());
  // Meta for a different width: edge counts cannot line up.
  ASSERT_OK_AND_ASSIGN(auto other, nn::MakeDenseBenchmarkModel(16, 2));
  EXPECT_FALSE(inference::ValidateModelTable(*table, nn::MetaOf(other)).ok());
}

TEST(ValidateModelTableTest, RejectsPairIdSchema) {
  ASSERT_OK_AND_ASSIGN(auto model, nn::MakeDenseBenchmarkModel(4, 1));
  mltosql::MlToSqlOptions basic;
  basic.unique_node_ids = false;
  mltosql::MlToSql framework(&model, "m", basic);
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildModelTable());
  EXPECT_FALSE(inference::ValidateModelTable(*table, nn::MetaOf(model)).ok());
}

TEST(ValidateModelTableTest, RejectsTamperedTable) {
  ASSERT_OK_AND_ASSIGN(auto model, nn::MakeDenseBenchmarkModel(4, 1));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildModelTable());
  // Rebuild the table with one edge dropped.
  storage::Table tampered("m", table->fields());
  for (int64_t r = 1; r < table->num_rows(); ++r) {
    std::vector<storage::Value> row;
    for (int c = 0; c < table->num_columns(); ++c) {
      row.push_back(table->column(c).GetValue(r));
    }
    ASSERT_OK(tampered.AppendRow(row));
  }
  tampered.Finalize();
  EXPECT_FALSE(inference::ValidateModelTable(tampered, nn::MetaOf(model)).ok());
}

}  // namespace
}  // namespace indbml
