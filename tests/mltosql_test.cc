#include "mltosql/mltosql.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>

#include "benchlib/workloads.h"
#include "exec/profile.h"
#include "nn/model.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using mltosql::FactTableInfo;
using mltosql::MlToSql;
using mltosql::MlToSqlOptions;
using sql::QueryEngine;

/// Reference predictions keyed by row id.
std::map<int64_t, std::vector<float>> ReferencePredictions(
    const nn::Model& model, const storage::Table& fact,
    const std::vector<std::string>& input_columns) {
  int64_t n = fact.num_rows();
  nn::Tensor x = nn::Tensor::Matrix(n, model.input_width());
  std::vector<int> col_idx;
  for (const auto& name : input_columns) {
    auto idx = fact.ColumnIndex(name);
    INDBML_CHECK(idx.ok());
    col_idx.push_back(*idx);
  }
  int id_col = *fact.ColumnIndex("id");
  for (int64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < col_idx.size(); ++c) {
      x.At(r, static_cast<int64_t>(c)) = fact.column(col_idx[c]).GetFloat(r);
    }
  }
  auto pred = model.Predict(x);
  INDBML_CHECK(pred.ok());
  std::map<int64_t, std::vector<float>> by_id;
  for (int64_t r = 0; r < n; ++r) {
    std::vector<float> row(static_cast<size_t>(model.output_dim()));
    for (int64_t c = 0; c < model.output_dim(); ++c) row[static_cast<size_t>(c)] = pred->At(r, c);
    by_id[fact.column(id_col).GetInt64(r)] = row;
  }
  return by_id;
}

struct OptionCase {
  bool unique_ids;
  bool range_filters;
  bool sorted;
};

class MlToSqlOptionsTest : public ::testing::TestWithParam<OptionCase> {};

TEST_P(MlToSqlOptionsTest, DensePredictionsMatchReference) {
  OptionCase oc = GetParam();
  QueryEngine engine;
  auto fact = benchlib::MakeIrisTable("fact", 300);
  ASSERT_OK(engine.catalog()->CreateTable(fact));

  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 7));
  MlToSqlOptions options;
  options.unique_node_ids = oc.unique_ids;
  options.range_filters = oc.range_filters;
  options.sorted_model_table = oc.sorted;
  MlToSql framework(&model, "iris_model", options);
  ASSERT_OK(framework.Deploy(&engine));

  FactTableInfo info;
  info.table = "fact";
  info.input_columns = {"sepal_length", "sepal_width", "petal_length", "petal_width"};
  info.payload_columns = {"class"};
  ASSERT_OK_AND_ASSIGN(std::string sqltext, framework.GenerateInferenceSql(info));

  ASSERT_OK_AND_ASSIGN(auto result, engine.ExecuteQuery(sqltext));
  ASSERT_EQ(result.num_rows, 300);

  auto reference = ReferencePredictions(model, *fact, info.input_columns);
  ASSERT_OK_AND_ASSIGN(int id_col, result.ColumnIndex("id"));
  ASSERT_OK_AND_ASSIGN(int pred_col, result.ColumnIndex("prediction"));
  for (int64_t r = 0; r < result.num_rows; ++r) {
    int64_t id = result.GetValue(r, id_col).i;
    float expected = reference.at(id)[0];
    float actual = result.GetValue(r, pred_col).f;
    ASSERT_NEAR(actual, expected, 1e-4)
        << "row id " << id << " options(u=" << oc.unique_ids
        << ",f=" << oc.range_filters << ",s=" << oc.sorted << ")";
  }
}

TEST_P(MlToSqlOptionsTest, LstmPredictionsMatchReference) {
  OptionCase oc = GetParam();
  QueryEngine engine;
  auto fact = benchlib::MakeSinusTable("series", 200, 3);
  ASSERT_OK(engine.catalog()->CreateTable(fact));

  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeLstmBenchmarkModel(6, 3, 11));
  MlToSqlOptions options;
  options.unique_node_ids = oc.unique_ids;
  options.range_filters = oc.range_filters;
  options.sorted_model_table = oc.sorted;
  MlToSql framework(&model, "lstm_model", options);
  ASSERT_OK(framework.Deploy(&engine));

  FactTableInfo info;
  info.table = "series";
  info.input_columns = {"x0", "x1", "x2"};
  ASSERT_OK_AND_ASSIGN(std::string sqltext, framework.GenerateInferenceSql(info));

  ASSERT_OK_AND_ASSIGN(auto result, engine.ExecuteQuery(sqltext));
  ASSERT_EQ(result.num_rows, 200);

  auto reference = ReferencePredictions(model, *fact, info.input_columns);
  ASSERT_OK_AND_ASSIGN(int id_col, result.ColumnIndex("id"));
  ASSERT_OK_AND_ASSIGN(int pred_col, result.ColumnIndex("prediction"));
  for (int64_t r = 0; r < result.num_rows; ++r) {
    int64_t id = result.GetValue(r, id_col).i;
    ASSERT_NEAR(result.GetValue(r, pred_col).f, reference.at(id)[0], 1e-4)
        << "row id " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOptionCombinations, MlToSqlOptionsTest,
    ::testing::Values(OptionCase{true, true, true}, OptionCase{true, true, false},
                      OptionCase{true, false, true}, OptionCase{true, false, false},
                      OptionCase{false, true, true}, OptionCase{false, true, false},
                      OptionCase{false, false, true},
                      OptionCase{false, false, false}),
    [](const ::testing::TestParamInfo<OptionCase>& info) {
      std::string name;
      name += info.param.unique_ids ? "UniqueIds" : "PairIds";
      name += info.param.range_filters ? "Filters" : "NoFilters";
      name += info.param.sorted ? "Sorted" : "Unsorted";
      return name;
    });

TEST(MlToSqlTest, MultiOutputPivot) {
  QueryEngine engine;
  auto fact = benchlib::MakeIrisTable("fact", 120);
  ASSERT_OK(engine.catalog()->CreateTable(fact));

  nn::ModelBuilder builder(4);
  builder.AddDense(8, nn::Activation::kRelu).AddDense(3, nn::Activation::kSigmoid);
  ASSERT_OK_AND_ASSIGN(nn::Model model, builder.Build(3));

  MlToSql framework(&model, "multi_model");
  ASSERT_OK(framework.Deploy(&engine));
  FactTableInfo info;
  info.table = "fact";
  info.input_columns = {"sepal_length", "sepal_width", "petal_length", "petal_width"};
  ASSERT_OK_AND_ASSIGN(std::string sqltext, framework.GenerateInferenceSql(info));
  ASSERT_OK_AND_ASSIGN(auto result, engine.ExecuteQuery(sqltext));
  ASSERT_EQ(result.num_rows, 120);

  auto reference = ReferencePredictions(model, *fact, info.input_columns);
  ASSERT_OK_AND_ASSIGN(int id_col, result.ColumnIndex("id"));
  for (int64_t j = 0; j < 3; ++j) {
    ASSERT_OK_AND_ASSIGN(
        int pred_col,
        result.ColumnIndex("prediction_" + std::to_string(j)));
    for (int64_t r = 0; r < result.num_rows; ++r) {
      int64_t id = result.GetValue(r, id_col).i;
      ASSERT_NEAR(result.GetValue(r, pred_col).f,
                  reference.at(id)[static_cast<size_t>(j)], 1e-4);
    }
  }
}

TEST(MlToSqlTest, ModelTableShape) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(4, 1, 5));
  MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildModelTable());
  // 4 input edges + 4x4 hidden edges + 4x1 output edges.
  EXPECT_EQ(table->num_rows(), 4 + 16 + 4);
  EXPECT_EQ(table->num_columns(), 14);  // unique ids drop layer columns

  MlToSqlOptions basic;
  basic.unique_node_ids = false;
  MlToSql framework16(&model, "m16", basic);
  ASSERT_OK_AND_ASSIGN(auto table16, framework16.BuildModelTable());
  EXPECT_EQ(table16->num_columns(), 16);  // §4.1: 16-column model table
  EXPECT_EQ(table16->num_rows(), table->num_rows());
}

TEST(MlToSqlTest, LstmModelTableStoresRecurrentKernelOnce) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeLstmBenchmarkModel(5, 3, 5));
  MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildModelTable());
  // 1x5 kernel edges + 5x5 recurrent edges + 5x1 dense output edges,
  // independent of the number of time steps (§4.3.3).
  EXPECT_EQ(table->num_rows(), 5 + 25 + 5);
}

TEST(MlToSqlTest, GenerateLoadStatements) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(4, 1, 5));
  MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(auto statements, framework.GenerateLoadStatements());
  ASSERT_EQ(statements.size(), 1u + 24u);  // CREATE + one INSERT per edge
  EXPECT_NE(statements[0].find("CREATE TABLE m"), std::string::npos);
  EXPECT_NE(statements[1].find("INSERT INTO m VALUES"), std::string::npos);
}

TEST(MlToSqlTest, SelfJoinWideningMatchesDirectTable) {
  QueryEngine engine;
  ASSERT_OK(engine.catalog()->CreateTable(benchlib::MakeRawSinusSeries("raw", 50)));
  std::string widen = benchlib::BuildSelfJoinSql("raw", 3);
  ASSERT_OK_AND_ASSIGN(auto wide, engine.ExecuteQuery(widen + " ORDER BY id"));
  // 48 anchors have two successors.
  ASSERT_EQ(wide.num_rows, 48);
  auto direct = benchlib::MakeSinusTable("direct", 48, 3);
  for (int64_t r = 0; r < wide.num_rows; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      ASSERT_NEAR(wide.GetValue(r, c).AsDouble(),
                  direct->column(static_cast<int>(c)).GetValue(r).AsDouble(), 1e-5);
    }
  }
}

TEST(MlToSqlTest, RejectsMismatchedInputColumns) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(4, 1, 5));
  MlToSql framework(&model, "m");
  FactTableInfo info;
  info.table = "fact";
  info.input_columns = {"a", "b"};  // model expects 4
  auto result = framework.GenerateInferenceSql(info);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------- groupjoin rule (sql/physical_planner.cc) ----------

/// The logical nodes of `plan` in pre-order: the order the physical planner
/// registers profile nodes in.
std::vector<const sql::LogicalOp*> PreOrder(const sql::LogicalOp& plan) {
  std::vector<const sql::LogicalOp*> nodes;
  std::function<void(const sql::LogicalOp&)> walk = [&](const sql::LogicalOp& op) {
    nodes.push_back(&op);
    for (const auto& child : op.children) walk(*child);
  };
  walk(plan);
  return nodes;
}

/// One profiled run of `sqltext`, with the logical plan it ran.
struct ProfiledRun {
  sql::LogicalOpPtr plan;
  std::vector<const sql::LogicalOp*> nodes;  ///< pre-order, = profile node ids
  exec::QueryProfile profile;
  exec::QueryResult result;

  /// True if the profile marks node `i` (a HashJoin) as walked by a
  /// GroupJoinOperator.
  bool Fused(size_t i) const {
    return profile.Aggregate(static_cast<int>(i)).phase_nanos.count("groupjoin") > 0;
  }
  /// Pre-order ids of the HashJoins that sit directly under a streaming
  /// aggregate.
  std::vector<size_t> JoinsUnderStreamingAggregates() const {
    std::vector<size_t> ids;
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      if (nodes[i]->kind == sql::LogicalKind::kAggregate && nodes[i]->streaming &&
          nodes[i + 1]->kind == sql::LogicalKind::kHashJoin) {
        ids.push_back(i + 1);
      }
    }
    return ids;
  }
};

void RunProfiled(QueryEngine* engine, const std::string& sqltext, ProfiledRun* run) {
  ASSERT_OK_AND_ASSIGN(run->plan, engine->PlanQuery(sqltext));
  run->nodes = PreOrder(*run->plan);
  ASSERT_OK_AND_ASSIGN(run->result, engine->ExecutePlan(*run->plan, &run->profile));
  // EXPLAIN ANALYZE keeps one node per logical node, with its label.
  ASSERT_EQ(run->profile.num_nodes(), static_cast<int>(run->nodes.size()));
  for (size_t i = 0; i < run->nodes.size(); ++i) {
    ASSERT_EQ(run->profile.node_label(static_cast<int>(i)), run->nodes[i]->NodeString());
  }
}

/// Deploys `model` and returns its inference SQL over `fact`.
std::string DeployAndGenerate(QueryEngine* engine, const nn::Model& model,
                              const std::string& fact,
                              std::vector<std::string> input_columns) {
  MlToSql framework(&model, "m");
  EXPECT_OK(framework.Deploy(engine));
  FactTableInfo info;
  info.table = fact;
  info.input_columns = std::move(input_columns);
  auto sqltext = framework.GenerateInferenceSql(info);
  EXPECT_OK(sqltext.status());
  return sqltext.ok() ? *sqltext : "";
}

/// Every cell of two results, bit for bit, after ordering both by column 0.
void ExpectSameResultBits(const exec::QueryResult& a, const exec::QueryResult& b) {
  ASSERT_EQ(a.num_rows, b.num_rows);
  ASSERT_EQ(a.types.size(), b.types.size());
  auto rows_by_id = [](const exec::QueryResult& r) {
    std::map<int64_t, std::vector<uint64_t>> rows;
    for (int64_t row = 0; row < r.num_rows; ++row) {
      std::vector<uint64_t>& bits = rows[r.GetValue(row, 0).i];
      for (size_t c = 0; c < r.types.size(); ++c) {
        const exec::Value v = r.GetValue(row, static_cast<int64_t>(c));
        uint64_t word = 0;
        if (v.type == exec::DataType::kFloat) {
          std::memcpy(&word, &v.f, sizeof(v.f));
        } else {
          word = static_cast<uint64_t>(v.type == exec::DataType::kInt64 ? v.i : v.b);
        }
        bits.push_back(word);
      }
    }
    return rows;
  };
  EXPECT_TRUE(rows_by_id(a) == rows_by_id(b));
}

TEST(GroupJoinRuleTest, FiresOnDenseLstmAndGruPlans) {
  struct Case {
    std::string name;
    nn::Model model;
    bool series;
    size_t min_fused;  ///< layer blocks the rule must fuse
  };
  std::vector<Case> cases;
  cases.push_back({"dense", *nn::MakeDenseBenchmarkModel(8, 3, 3), false, 4});
  // LSTM: one recurrent block per step after the first; GRU: two.
  cases.push_back({"lstm", *nn::MakeLstmBenchmarkModel(6, 3, 4), true, 2});
  cases.push_back({"gru", *nn::MakeGruBenchmarkModel(4, 3, 5), true, 4});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    QueryEngine engine;
    ASSERT_OK(engine.catalog()->CreateTable(
        c.series ? benchlib::MakeSinusTable("fact", 150, 3)
                 : benchlib::MakeIrisTable("fact", 150)));
    const std::string sqltext = DeployAndGenerate(
        &engine, c.model, "fact",
        c.series ? std::vector<std::string>{"x0", "x1", "x2"}
                 : std::vector<std::string>{"sepal_length", "sepal_width", "petal_length",
                                            "petal_width"});
    ProfiledRun run;
    RunProfiled(&engine, sqltext, &run);
    const std::vector<size_t> candidates = run.JoinsUnderStreamingAggregates();
    EXPECT_GE(candidates.size(), c.min_fused);
    size_t fused = 0;
    for (size_t i = 0; i < run.nodes.size(); ++i) {
      const bool candidate =
          std::find(candidates.begin(), candidates.end(), i) != candidates.end();
      EXPECT_EQ(run.Fused(i), candidate) << run.nodes[i]->NodeString();
      fused += run.Fused(i) ? 1 : 0;
    }
    EXPECT_EQ(fused, candidates.size());
    EXPECT_EQ(run.result.num_rows, 150);
  }
}

TEST(GroupJoinRuleTest, ProfileCountsThePairsOfEveryLayer) {
  constexpr int64_t kRows = 200;
  QueryEngine engine;
  ASSERT_OK(engine.catalog()->CreateTable(benchlib::MakeIrisTable("fact", kRows)));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 3, 6));
  const std::string sqltext = DeployAndGenerate(
      &engine, model, "fact",
      {"sepal_length", "sepal_width", "petal_length", "petal_width"});
  ProfiledRun run;
  RunProfiled(&engine, sqltext, &run);
  // Pre-order visits the last layer's block first.
  std::vector<int64_t> want;
  std::vector<int64_t> want_groups;
  for (auto it = model.layers().rbegin(); it != model.layers().rend(); ++it) {
    want.push_back(kRows * it->dense.input_dim * it->dense.units);
    want_groups.push_back(kRows * it->dense.units);
  }
  std::vector<int64_t> join_rows;
  std::vector<int64_t> groups;
  for (size_t join : run.JoinsUnderStreamingAggregates()) {
    ASSERT_TRUE(run.Fused(join));
    const exec::OperatorStats stats = run.profile.Aggregate(static_cast<int>(join));
    join_rows.push_back(stats.rows);
    // The join's time includes its children's, so its self time is >= 0.
    int64_t children = 0;
    for (size_t c = join + 1; c < run.nodes.size(); ++c) {
      if (run.nodes[c] == run.nodes[join]->children[0].get() ||
          run.nodes[c] == run.nodes[join]->children[1].get()) {
        const exec::OperatorStats child = run.profile.Aggregate(static_cast<int>(c));
        children += child.open_nanos + child.next_nanos + child.close_nanos;
      }
    }
    EXPECT_GE(stats.open_nanos + stats.next_nanos + stats.close_nanos, children);
    // The aggregate above reads the pairs the join walked (its child's
    // rows), emits one row per (tuple, node), and its time includes the
    // join's.
    const exec::OperatorStats agg = run.profile.Aggregate(static_cast<int>(join - 1));
    groups.push_back(agg.rows);
    EXPECT_GE(agg.next_nanos, stats.next_nanos);
  }
  EXPECT_EQ(join_rows, want);
  EXPECT_EQ(groups, want_groups);

  // The unfused plan (hash aggregation) joins exactly as many rows.
  QueryEngine::Options unfused = engine.options();
  unfused.optimizer.ordered_aggregation = false;
  engine.set_options(unfused);
  ProfiledRun hashed;
  RunProfiled(&engine, sqltext, &hashed);
  std::vector<int64_t> hashed_rows;
  for (size_t i = 0; i + 1 < hashed.nodes.size(); ++i) {
    if (hashed.nodes[i]->kind == sql::LogicalKind::kAggregate &&
        hashed.nodes[i + 1]->kind == sql::LogicalKind::kHashJoin) {
      EXPECT_FALSE(hashed.Fused(i + 1));
      hashed_rows.push_back(hashed.profile.Aggregate(static_cast<int>(i + 1)).rows);
    }
  }
  EXPECT_EQ(hashed_rows, want);
  ExpectSameResultBits(run.result, hashed.result);
}

TEST(GroupJoinRuleTest, ResultsAreBitIdenticalAcrossWorkerCounts) {
  QueryEngine engine;
  ASSERT_OK(engine.catalog()->CreateTable(benchlib::MakeIrisTable("fact", 3000)));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 8));
  const std::string sqltext = DeployAndGenerate(
      &engine, model, "fact",
      {"sepal_length", "sepal_width", "petal_length", "petal_width"});
  QueryEngine::Options serial = engine.options();
  serial.worker_threads = 1;
  engine.set_options(serial);
  ASSERT_OK_AND_ASSIGN(auto one, engine.ExecuteQuery(sqltext));
  QueryEngine::Options parallel = serial;
  parallel.worker_threads = 4;
  parallel.morsel_rows = 256;  // 12 morsels over 4 workers
  engine.set_options(parallel);
  exec::QueryProfile profile;
  ASSERT_OK_AND_ASSIGN(auto four, engine.ExecuteQuery(sqltext, &profile));
  EXPECT_EQ(profile.num_workers(), 4);
  ASSERT_EQ(one.num_rows, 3000);
  ExpectSameResultBits(one, four);
}

TEST(GroupJoinRuleTest, DoesNotFireOutsideItsShape) {
  // p (id sorted, node, v) joined with m (node_in, node, w) on p.node = m.node_in.
  QueryEngine engine;
  auto p = std::make_shared<storage::Table>(
      "p", std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                       {"node", exec::DataType::kInt64},
                                       {"v", exec::DataType::kFloat}});
  for (int64_t r = 0; r < 600; ++r) {
    ASSERT_OK(p->AppendRow({testutil::I(r / 3), testutil::I(r % 3),
                            testutil::F(static_cast<float>(r % 7) - 3.0f)}));
  }
  p->Finalize();
  p->SetSortedBy({"id"});
  auto m = std::make_shared<storage::Table>(
      "m", std::vector<storage::Field>{{"node_in", exec::DataType::kInt64},
                                       {"node", exec::DataType::kInt64},
                                       {"w", exec::DataType::kFloat}});
  for (int64_t r = 0; r < 12; ++r) {
    ASSERT_OK(m->AppendRow({testutil::I(r % 3), testutil::I(10 + r / 3),
                            testutil::F(0.25f * static_cast<float>(r) - 1.0f)}));
  }
  m->Finalize();
  ASSERT_OK(engine.catalog()->CreateTable(p));
  ASSERT_OK(engine.catalog()->CreateTable(m));

  struct Case {
    std::string name;
    std::string sqltext;
    bool fires;
    sql::LogicalKind aggregate_child;
  };
  const std::vector<Case> cases = {
      {"build-side rest key",
       "SELECT p.id, m.node, SUM(p.v * m.w) AS s FROM p, m "
       "WHERE p.node = m.node_in GROUP BY p.id, m.node",
       true, sql::LogicalKind::kHashJoin},
      {"probe-side rest key",
       "SELECT p.id, p.node, SUM(p.v * m.w) AS s FROM p, m "
       "WHERE p.node = m.node_in GROUP BY p.id, p.node",
       false, sql::LogicalKind::kHashJoin},
      {"filter between",
       "SELECT p.id, m.node, SUM(p.v * m.w) AS s FROM p, m "
       "WHERE p.node = m.node_in AND p.v > m.w GROUP BY p.id, m.node",
       false, sql::LogicalKind::kFilter},
      {"project between",
       "SELECT t.id, t.node, SUM(t.x) AS s FROM (SELECT p.id AS id, m.node AS node, "
       "p.v * m.w AS x FROM p, m WHERE p.node = m.node_in) AS t GROUP BY t.id, t.node",
       false, sql::LogicalKind::kProject},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    engine.set_options(QueryEngine::Options());
    ProfiledRun run;
    RunProfiled(&engine, c.sqltext, &run);
    // Locate the aggregate and check the plan has the shape the case is about.
    size_t agg = 0;
    while (agg < run.nodes.size() && run.nodes[agg]->kind != sql::LogicalKind::kAggregate) {
      ++agg;
    }
    ASSERT_LT(agg + 1, run.nodes.size());
    ASSERT_TRUE(run.nodes[agg]->streaming);
    ASSERT_EQ(run.nodes[agg + 1]->kind, c.aggregate_child);
    bool fused = false;
    for (size_t i = 0; i < run.nodes.size(); ++i) fused = fused || run.Fused(i);
    EXPECT_EQ(fused, c.fires);

    // Without ordered aggregation nothing streams, so nothing fuses; the
    // results agree bit for bit.
    QueryEngine::Options hashed;
    hashed.optimizer.ordered_aggregation = false;
    engine.set_options(hashed);
    ProfiledRun unfused;
    RunProfiled(&engine, c.sqltext, &unfused);
    for (size_t i = 0; i < unfused.nodes.size(); ++i) EXPECT_FALSE(unfused.Fused(i));
    ASSERT_GT(run.result.num_rows, 0);
    ExpectSameResultBits(run.result, unfused.result);
  }
}

}  // namespace
}  // namespace indbml
