#include <gtest/gtest.h>

#include <set>

#include "benchlib/workloads.h"
#include "mltosql/mltosql.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using sql::QueryEngine;
using testutil::Cell;
using testutil::F;
using testutil::I;
using testutil::MakeTable;

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<QueryEngine>();
    auto t = MakeTable(
        "points",
        {{"id", storage::DataType::kInt64},
         {"x", storage::DataType::kFloat},
         {"y", storage::DataType::kFloat},
         {"tag", storage::DataType::kInt64}},
        {
            {I(0), F(1.0f), F(10.0f), I(1)},
            {I(1), F(2.0f), F(20.0f), I(1)},
            {I(2), F(3.0f), F(30.0f), I(2)},
            {I(3), F(4.0f), F(40.0f), I(2)},
            {I(4), F(5.0f), F(50.0f), I(3)},
        });
    t->SetUniqueIdColumn("id");
    t->SetSortedBy({"id"});
    ASSERT_OK(engine_->catalog()->CreateTable(t));

    auto small = MakeTable("tags",
                           {{"tag", storage::DataType::kInt64},
                            {"label", storage::DataType::kInt64}},
                           {
                               {I(1), I(100)},
                               {I(2), I(200)},
                               {I(3), I(300)},
                           });
    ASSERT_OK(engine_->catalog()->CreateTable(small));
  }

  exec::QueryResult Run(const std::string& sql) {
    auto result = engine_->ExecuteQuery(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\nSQL: " << sql;
    return result.ok() ? std::move(result).ValueOrDie() : exec::QueryResult{};
  }

  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(SqlEngineTest, SelectStar) {
  auto r = Run("SELECT * FROM points");
  EXPECT_EQ(r.num_rows, 5);
  EXPECT_EQ(r.names.size(), 4u);
  EXPECT_EQ(Cell(r, 2, 1), 3.0);
}

TEST_F(SqlEngineTest, Projection) {
  auto r = Run("SELECT x + y AS s, x * 2 AS d FROM points");
  EXPECT_EQ(r.num_rows, 5);
  EXPECT_EQ(r.names[0], "s");
  EXPECT_DOUBLE_EQ(Cell(r, 0, 0), 11.0);
  EXPECT_DOUBLE_EQ(Cell(r, 4, 1), 10.0);
}

TEST_F(SqlEngineTest, Filter) {
  auto r = Run("SELECT id FROM points WHERE x > 2.5");
  EXPECT_EQ(r.num_rows, 3);
  EXPECT_EQ(Cell(r, 0, 0), 2);
}

TEST_F(SqlEngineTest, FilterConjunction) {
  auto r = Run("SELECT id FROM points WHERE x > 1.5 AND y < 45.0");
  EXPECT_EQ(r.num_rows, 3);
}

TEST_F(SqlEngineTest, NegativeLiteralComparison) {
  auto r = Run("SELECT id FROM points WHERE tag <> -1");
  EXPECT_EQ(r.num_rows, 5);
}

TEST_F(SqlEngineTest, CaseExpression) {
  auto r = Run(
      "SELECT CASE WHEN x < 2.5 THEN 0 WHEN x < 4.5 THEN 1 ELSE 2 END AS bucket "
      "FROM points");
  EXPECT_EQ(r.num_rows, 5);
  EXPECT_EQ(Cell(r, 0, 0), 0);
  EXPECT_EQ(Cell(r, 2, 0), 1);
  EXPECT_EQ(Cell(r, 4, 0), 2);
}

TEST_F(SqlEngineTest, ScalarFunctions) {
  auto r = Run("SELECT sigmoid(0.0) AS s, tanh(0.0) AS t, relu(-3.0) AS re "
               "FROM points LIMIT 1");
  EXPECT_NEAR(Cell(r, 0, 0), 0.5, 1e-6);
  EXPECT_NEAR(Cell(r, 0, 1), 0.0, 1e-6);
  EXPECT_NEAR(Cell(r, 0, 2), 0.0, 1e-6);
}

TEST_F(SqlEngineTest, HashJoin) {
  auto r = Run(
      "SELECT p.id, t.label FROM points AS p, tags AS t "
      "WHERE p.tag = t.tag ORDER BY p.id");
  EXPECT_EQ(r.num_rows, 5);
  EXPECT_EQ(Cell(r, 0, 1), 100);
  EXPECT_EQ(Cell(r, 4, 1), 300);
}

TEST_F(SqlEngineTest, ExplicitJoinSyntax) {
  auto r = Run(
      "SELECT p.id, t.label FROM points p INNER JOIN tags t ON p.tag = t.tag "
      "ORDER BY p.id");
  EXPECT_EQ(r.num_rows, 5);
}

TEST_F(SqlEngineTest, CrossJoin) {
  auto r = Run("SELECT p.id, t.tag FROM points p CROSS JOIN tags t");
  EXPECT_EQ(r.num_rows, 15);
}

TEST_F(SqlEngineTest, GroupByAggregate) {
  auto r = Run(
      "SELECT tag, SUM(x) AS sx, COUNT(*) AS c FROM points GROUP BY tag "
      "ORDER BY tag");
  EXPECT_EQ(r.num_rows, 3);
  EXPECT_DOUBLE_EQ(Cell(r, 0, 1), 3.0);
  EXPECT_EQ(Cell(r, 0, 2), 2);
  EXPECT_DOUBLE_EQ(Cell(r, 2, 1), 5.0);
}

TEST_F(SqlEngineTest, AggregateExpressionOnTop) {
  auto r = Run(
      "SELECT tag, SUM(x) + MIN(y) AS combo FROM points GROUP BY tag ORDER BY tag");
  EXPECT_EQ(r.num_rows, 3);
  EXPECT_DOUBLE_EQ(Cell(r, 0, 1), 13.0);
}

TEST_F(SqlEngineTest, AvgMinMax) {
  auto r = Run("SELECT tag, AVG(x) a, MIN(x) mn, MAX(x) mx FROM points "
               "GROUP BY tag ORDER BY tag");
  EXPECT_DOUBLE_EQ(Cell(r, 0, 1), 1.5);
  EXPECT_DOUBLE_EQ(Cell(r, 1, 2), 3.0);
  EXPECT_DOUBLE_EQ(Cell(r, 2, 3), 5.0);
}

TEST_F(SqlEngineTest, Subquery) {
  auto r = Run(
      "SELECT s.id2 FROM (SELECT id + 1 AS id2 FROM points WHERE x > 3.5) AS s "
      "ORDER BY s.id2");
  EXPECT_EQ(r.num_rows, 2);
  EXPECT_EQ(Cell(r, 0, 0), 4);
  EXPECT_EQ(Cell(r, 1, 0), 5);
}

TEST_F(SqlEngineTest, NestedSubqueryWithAggregation) {
  auto r = Run(
      "SELECT t.tag, SUM(t.sx) AS total FROM "
      "(SELECT tag, SUM(x) AS sx FROM points GROUP BY tag) AS t "
      "GROUP BY t.tag ORDER BY t.tag");
  EXPECT_EQ(r.num_rows, 3);
  EXPECT_DOUBLE_EQ(Cell(r, 0, 1), 3.0);
}

TEST_F(SqlEngineTest, OrderByDesc) {
  auto r = Run("SELECT id FROM points ORDER BY id DESC");
  EXPECT_EQ(Cell(r, 0, 0), 4);
  EXPECT_EQ(Cell(r, 4, 0), 0);
}

TEST_F(SqlEngineTest, Limit) {
  auto r = Run("SELECT id FROM points ORDER BY id LIMIT 2");
  EXPECT_EQ(r.num_rows, 2);
}

TEST_F(SqlEngineTest, GroupByIdUsesStreamingAggregate) {
  // Sorted-by-id scan + grouping on id should select the streaming strategy.
  ASSERT_OK_AND_ASSIGN(auto plan,
                       engine_->PlanQuery("SELECT id, SUM(x) s FROM points GROUP BY id"));
  std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("streaming"), std::string::npos) << rendered;
}

TEST_F(SqlEngineTest, GroupByFloatKeyFoldsSignedZero) {
  // 0.0 and -0.0 are equal, so they form one group, as they match in a
  // join. Hash path (unordered input) first.
  ASSERT_OK(engine_->catalog()->CreateTable(
      MakeTable("zeros", {{"x", storage::DataType::kFloat}}, {{F(0.0f)}, {F(-0.0f)}})));
  auto r = Run("SELECT x, COUNT(*) AS c FROM zeros GROUP BY x");
  ASSERT_EQ(r.num_rows, 1);
  EXPECT_EQ(Cell(r, 0, 0), 0.0);
  EXPECT_EQ(Cell(r, 0, 1), 2);
}

TEST_F(SqlEngineTest, StreamingGroupByFloatKeyFoldsSignedZero) {
  // The same through the streaming aggregate, with the float column once as
  // the sorted prefix key and once as a rest key hashed within the prefix.
  const std::vector<std::vector<storage::Value>> rows = {
      {F(-0.0f), I(1)}, {F(0.0f), I(1)}, {F(-0.0f), I(1)}, {F(2.0f), I(1)}};
  auto by_x = MakeTable(
      "by_x", {{"x", storage::DataType::kFloat}, {"g", storage::DataType::kInt64}}, rows);
  by_x->SetSortedBy({"x"});
  ASSERT_OK(engine_->catalog()->CreateTable(by_x));
  auto by_g = MakeTable(
      "by_g", {{"x", storage::DataType::kFloat}, {"g", storage::DataType::kInt64}}, rows);
  by_g->SetSortedBy({"g"});
  ASSERT_OK(engine_->catalog()->CreateTable(by_g));
  for (const char* sql : {"SELECT x, COUNT(*) AS c FROM by_x GROUP BY x",
                          "SELECT x, COUNT(*) AS c FROM by_g GROUP BY g, x"}) {
    ASSERT_OK_AND_ASSIGN(auto plan, engine_->PlanQuery(sql));
    EXPECT_NE(plan->ToString().find("streaming"), std::string::npos) << plan->ToString();
    auto r = Run(sql);
    ASSERT_EQ(r.num_rows, 2) << sql;
    EXPECT_EQ(Cell(r, 0, 0), 0.0) << sql;
    EXPECT_EQ(Cell(r, 0, 1), 3) << sql;
    EXPECT_EQ(Cell(r, 1, 0), 2.0) << sql;
    EXPECT_EQ(Cell(r, 1, 1), 1) << sql;
  }
}

TEST_F(SqlEngineTest, ErrorUnknownTable) {
  auto result = engine_->ExecuteQuery("SELECT * FROM nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(SqlEngineTest, ErrorUnknownColumn) {
  auto result = engine_->ExecuteQuery("SELECT zzz FROM points");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

TEST_F(SqlEngineTest, ErrorAmbiguousColumn) {
  auto result =
      engine_->ExecuteQuery("SELECT tag FROM points p, tags t WHERE p.tag = t.tag");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

TEST_F(SqlEngineTest, ErrorBareColumnWithGroupBy) {
  auto result = engine_->ExecuteQuery("SELECT x FROM points GROUP BY tag");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
}

TEST_F(SqlEngineTest, ErrorParse) {
  auto result = engine_->ExecuteQuery("SELEKT * FROM points");
  EXPECT_FALSE(result.ok());
}

TEST_F(SqlEngineTest, ExplainAnalyzeModelJoin) {
  modeljoin::RegisterNativeModelJoin(engine_.get());
  auto fact = benchlib::MakeIrisTable("fact", 3000);
  ASSERT_OK(engine_->catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(64, 3, 21));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(engine_.get()));
  engine_->models()->Register(nn::MetaOf(model, "dense64"));

  // Programmatic profile: the ModelJoin node reports the correct row count
  // and nonzero build and inference phase timings per partition aggregate.
  exec::QueryProfile profile;
  std::string sql =
      "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'dense64' "
      "DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
      "petal_width)";
  ASSERT_OK_AND_ASSIGN(auto result, engine_->ExecuteQuery(sql, &profile));
  EXPECT_EQ(result.num_rows, 3000);
  ASSERT_GT(profile.num_nodes(), 0);
  int modeljoin_node = -1;
  for (int n = 0; n < profile.num_nodes(); ++n) {
    if (profile.node_label(n).find("ModelJoin") != std::string::npos) {
      modeljoin_node = n;
    }
  }
  ASSERT_GE(modeljoin_node, 0);
  exec::OperatorStats stats = profile.Aggregate(modeljoin_node);
  EXPECT_EQ(stats.rows, 3000);
  EXPECT_GT(stats.chunks, 0);
  EXPECT_GT(stats.phase_nanos.at("build"), 0);
  EXPECT_GT(stats.phase_nanos.at("inference"), 0);
  EXPECT_GT(stats.phase_nanos.at("convert"), 0);
  EXPECT_GT(profile.wall_nanos(), 0);
  EXPECT_GE(profile.peak_memory_bytes(), 0);

  // Rendered form: annotated plan tree with rows and phase breakdowns.
  ASSERT_OK_AND_ASSIGN(std::string text, engine_->ExplainAnalyze(sql));
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos) << text;
  EXPECT_NE(text.find("ModelJoin"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan fact"), std::string::npos) << text;
  EXPECT_NE(text.find("rows=3000"), std::string::npos) << text;
  EXPECT_NE(text.find("build="), std::string::npos) << text;
  EXPECT_NE(text.find("inference="), std::string::npos) << text;
  EXPECT_NE(text.find("peak_memory="), std::string::npos) << text;
}

TEST_F(SqlEngineTest, ExplainAnalyzePlainQueryCountsRows) {
  ASSERT_OK_AND_ASSIGN(std::string text,
                       engine_->ExplainAnalyze("SELECT id FROM points WHERE x > 2.5"));
  EXPECT_NE(text.find("Scan points"), std::string::npos) << text;
  EXPECT_NE(text.find("rows=3"), std::string::npos) << text;
}

TEST_F(SqlEngineTest, ProfilingOffByDefaultStillExecutes) {
  // No profile requested: same results, no ProfiledOperator in the tree
  // (nothing observable to assert beyond correct execution).
  auto r = Run("SELECT COUNT(*) AS n FROM points");
  EXPECT_EQ(Cell(r, 0, 0), 5);
}

}  // namespace
}  // namespace indbml
