#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "exec/aggregate.h"
#include "exec/basic_operators.h"
#include "exec/join.h"
#include "exec/scan.h"
#include "storage/table.h"
#include "test_util.h"

namespace indbml {
namespace {

using exec::DataChunk;
using exec::DataType;
using exec::ExecContext;
using exec::Value;
using testutil::F;
using testutil::I;
using testutil::MakeTable;

// ---------- storage ----------

TEST(TableTest, AppendAndFinalize) {
  auto t = MakeTable("t", {{"a", DataType::kInt64}, {"b", DataType::kFloat}},
                     {{I(1), F(1.5f)}, {I(2), F(2.5f)}});
  EXPECT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->column(0).GetInt64(1), 2);
  EXPECT_FLOAT_EQ(t->column(1).GetFloat(0), 1.5f);
  ASSERT_OK_AND_ASSIGN(int idx, t->ColumnIndex("B"));  // case-insensitive
  EXPECT_EQ(idx, 1);
  EXPECT_FALSE(t->ColumnIndex("zz").ok());
}

TEST(TableTest, RejectsBadRows) {
  storage::Table t("t", {{"a", DataType::kInt64}});
  EXPECT_FALSE(t.AppendRow({I(1), I(2)}).ok());
  ASSERT_OK(t.AppendRow({I(1)}));
  t.Finalize();
  EXPECT_FALSE(t.AppendRow({I(2)}).ok());  // after finalize
}

TEST(TableTest, BlockStats) {
  storage::Table t("t", {{"a", DataType::kInt64}});
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_OK(t.AppendRow({I(i)}));
  }
  t.Finalize();
  ASSERT_EQ(t.num_blocks(), (10000 + t.rows_per_block() - 1) / t.rows_per_block());
  const auto& stats = t.block_stats(0);
  EXPECT_EQ(stats[0].min.i, 0);
  EXPECT_EQ(stats[0].max.i, t.rows_per_block() - 1);
}

TEST(CatalogTest, CreateGetDrop) {
  storage::Catalog catalog;
  ASSERT_OK(catalog.CreateTable(MakeTable("t1", {{"a", DataType::kInt64}}, {})));
  EXPECT_FALSE(
      catalog.CreateTable(MakeTable("T1", {{"a", DataType::kInt64}}, {})).ok());
  ASSERT_OK_AND_ASSIGN(auto t, catalog.GetTable("t1"));
  EXPECT_EQ(t->name(), "t1");
  EXPECT_EQ(catalog.ListTables().size(), 1u);
  ASSERT_OK(catalog.DropTable("t1"));
  EXPECT_FALSE(catalog.GetTable("t1").ok());
}

// ---------- scan + zone maps ----------

TEST(ScanTest, BlockPruning) {
  storage::Table table("t", {{"a", DataType::kInt64}});
  for (int64_t i = 0; i < 5 * 4096; ++i) {
    INDBML_CHECK(table.AppendRow({I(i)}).ok());
  }
  table.Finalize();
  auto shared = std::make_shared<storage::Table>(std::move(table));

  exec::ScanPredicate pred;
  pred.column = 0;
  pred.op = exec::BinaryOp::kGe;
  pred.value = storage::Value::Int64(4 * 4096);
  exec::TableScanOperator scan(shared, {0, shared->num_rows()}, {0}, {pred});
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(auto result, DrainOperator(&scan, &ctx));
  EXPECT_EQ(result.num_rows, 4096);
  EXPECT_EQ(scan.stats().blocks_pruned, 4);
}

TEST(ScanTest, PartitionRangeRespected) {
  auto t = MakeTable("t", {{"a", DataType::kInt64}},
                     {{I(0)}, {I(1)}, {I(2)}, {I(3)}, {I(4)}});
  exec::TableScanOperator scan(t, {1, 4}, {0}, {});
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(auto result, DrainOperator(&scan, &ctx));
  EXPECT_EQ(result.num_rows, 3);
  EXPECT_EQ(result.GetValue(0, 0).i, 1);
  EXPECT_EQ(result.GetValue(2, 0).i, 3);
}

// ---------- expressions ----------

TEST(ExpressionTest, DivisionByZeroFails) {
  DataChunk chunk;
  chunk.Reset({DataType::kInt64});
  chunk.SetCardinality(1);
  chunk.column(0).ints()[0] = 0;
  auto expr = exec::MakeBinary(exec::BinaryOp::kDiv,
                               exec::MakeConstant(Value::Int64(10)),
                               exec::MakeColumnRef(0, DataType::kInt64));
  exec::Vector out(DataType::kInt64);
  EXPECT_FALSE(exec::EvaluateExpr(*expr, chunk, &out).ok());
}

TEST(ExpressionTest, MixedTypePromotion) {
  DataChunk chunk;
  chunk.Reset({DataType::kInt64, DataType::kFloat});
  chunk.SetCardinality(2);
  chunk.column(0).ints()[0] = 3;
  chunk.column(0).ints()[1] = -2;
  chunk.column(1).floats()[0] = 0.5f;
  chunk.column(1).floats()[1] = 1.5f;
  auto expr = exec::MakeBinary(exec::BinaryOp::kMul,
                               exec::MakeColumnRef(0, DataType::kInt64),
                               exec::MakeColumnRef(1, DataType::kFloat));
  EXPECT_EQ(expr->type, DataType::kFloat);
  exec::Vector out(DataType::kFloat);
  ASSERT_OK(exec::EvaluateExpr(*expr, chunk, &out));
  EXPECT_FLOAT_EQ(out.floats()[0], 1.5f);
  EXPECT_FLOAT_EQ(out.floats()[1], -3.0f);
}

TEST(ExpressionTest, CloneAndRemap) {
  auto expr = exec::MakeBinary(exec::BinaryOp::kAdd,
                               exec::MakeColumnRef(100, DataType::kInt64),
                               exec::MakeColumnRef(200, DataType::kInt64));
  auto clone = exec::CloneExpr(*expr);
  std::unordered_map<int64_t, int64_t> mapping{{100, 0}, {200, 1}};
  EXPECT_TRUE(exec::RemapColumnIds(clone.get(), mapping));
  EXPECT_EQ(clone->children[0]->column_id, 0);
  EXPECT_EQ(expr->children[0]->column_id, 100);  // original untouched
  std::unordered_map<int64_t, int64_t> incomplete{{100, 0}};
  auto clone2 = exec::CloneExpr(*expr);
  EXPECT_FALSE(exec::RemapColumnIds(clone2.get(), incomplete));
}

// ---------- joins ----------

std::unique_ptr<exec::TableScanOperator> ScanAll(storage::TablePtr t) {
  std::vector<int> cols;
  for (int i = 0; i < t->num_columns(); ++i) cols.push_back(i);
  return std::make_unique<exec::TableScanOperator>(
      t, storage::PartitionRange{0, t->num_rows()}, cols,
      std::vector<exec::ScanPredicate>{});
}

TEST(HashJoinTest, DuplicateKeys) {
  auto left = MakeTable("l", {{"k", DataType::kInt64}},
                        {{I(1)}, {I(2)}, {I(2)}, {I(3)}});
  auto right = MakeTable("r", {{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                         {{I(2), I(20)}, {I(2), I(21)}, {I(3), I(30)}});
  exec::HashJoinOperator join(
      ScanAll(left), ScanAll(right),
      [] {
        std::vector<exec::ExprPtr> keys;
        keys.push_back(exec::MakeColumnRef(0, DataType::kInt64));
        return keys;
      }(),
      [] {
        std::vector<exec::ExprPtr> keys;
        keys.push_back(exec::MakeColumnRef(0, DataType::kInt64));
        return keys;
      }());
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(auto result, DrainOperator(&join, &ctx));
  // 2 left "2" rows x 2 right "2" rows + 1x1 for "3".
  EXPECT_EQ(result.num_rows, 5);
}

TEST(HashJoinTest, EmptySides) {
  auto empty = MakeTable("e", {{"k", DataType::kInt64}}, {});
  auto data = MakeTable("d", {{"k", DataType::kInt64}}, {{I(1)}});
  auto make_keys = [] {
    std::vector<exec::ExprPtr> keys;
    keys.push_back(exec::MakeColumnRef(0, DataType::kInt64));
    return keys;
  };
  {
    exec::HashJoinOperator join(ScanAll(data), ScanAll(empty), make_keys(),
                                make_keys());
    ExecContext ctx;
    ASSERT_OK_AND_ASSIGN(auto result, DrainOperator(&join, &ctx));
    EXPECT_EQ(result.num_rows, 0);
  }
  {
    exec::HashJoinOperator join(ScanAll(empty), ScanAll(data), make_keys(),
                                make_keys());
    ExecContext ctx;
    ASSERT_OK_AND_ASSIGN(auto result, DrainOperator(&join, &ctx));
    EXPECT_EQ(result.num_rows, 0);
  }
}

TEST(HashJoinTest, LargeProbePreservesOrder) {
  storage::Table big("big", {{"k", DataType::kInt64}});
  for (int64_t i = 0; i < 5000; ++i) {
    INDBML_CHECK(big.AppendRow({I(i % 7)}).ok());
  }
  big.Finalize();
  auto big_ptr = std::make_shared<storage::Table>(std::move(big));
  auto small = MakeTable("small", {{"k", DataType::kInt64}, {"v", DataType::kInt64}},
                         {{I(0), I(100)}, {I(3), I(103)}});
  auto make_key = [](int col) {
    std::vector<exec::ExprPtr> keys;
    keys.push_back(exec::MakeColumnRef(col, DataType::kInt64));
    return keys;
  };
  exec::HashJoinOperator join(ScanAll(big_ptr), ScanAll(small), make_key(0),
                              make_key(0));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(auto result, DrainOperator(&join, &ctx));
  // 5000 rows of k in [0,7): k==0 appears ceil counts...
  int64_t expected = 0;
  for (int64_t i = 0; i < 5000; ++i) {
    if (i % 7 == 0 || i % 7 == 3) ++expected;
  }
  EXPECT_EQ(result.num_rows, expected);
  EXPECT_GT(join.BuildBytes(), 0);
}

TEST(CrossJoinTest, Cardinality) {
  auto l = MakeTable("l", {{"a", DataType::kInt64}}, {{I(1)}, {I(2)}, {I(3)}});
  auto r = MakeTable("r", {{"b", DataType::kInt64}}, {{I(10)}, {I(20)}});
  exec::CrossJoinOperator join(ScanAll(l), ScanAll(r));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(auto result, DrainOperator(&join, &ctx));
  EXPECT_EQ(result.num_rows, 6);
  // Left-major order: first two rows have a=1.
  EXPECT_EQ(result.GetValue(0, 0).i, 1);
  EXPECT_EQ(result.GetValue(1, 0).i, 1);
  EXPECT_EQ(result.GetValue(2, 0).i, 2);
}

TEST(CrossJoinTest, EmptyRight) {
  auto l = MakeTable("l", {{"a", DataType::kInt64}}, {{I(1)}});
  auto r = MakeTable("r", {{"b", DataType::kInt64}}, {});
  exec::CrossJoinOperator join(ScanAll(l), ScanAll(r));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(auto result, DrainOperator(&join, &ctx));
  EXPECT_EQ(result.num_rows, 0);
}

// ---------- aggregation: hash vs streaming equivalence (property) ----------

struct AggCase {
  int64_t rows;
  int64_t groups_per_prefix;
  int prefix_count;
};

class AggregateEquivalenceTest : public ::testing::TestWithParam<AggCase> {};

TEST_P(AggregateEquivalenceTest, HashAndStreamingAgree) {
  AggCase p = GetParam();
  // Build a table sorted by (id) with a secondary key 'node' and a value;
  // grouping by (id, node) must give identical results for both strategies.
  storage::Table t("t", {{"id", DataType::kInt64},
                         {"node", DataType::kInt64},
                         {"v", DataType::kFloat}});
  Random rng(p.rows + p.groups_per_prefix);
  int64_t id = 0;
  for (int64_t r = 0; r < p.rows; ++r) {
    if (rng.NextUint64(3) == 0) ++id;
    INDBML_CHECK(
        t.AppendRow({I(id),
                     I(static_cast<int64_t>(rng.NextUint64(
                         static_cast<uint64_t>(p.groups_per_prefix)))),
                     F(rng.NextFloat(-1, 1))})
            .ok());
  }
  t.Finalize();
  auto table = std::make_shared<storage::Table>(std::move(t));

  auto make_groups = [] {
    std::vector<exec::ExprPtr> groups;
    groups.push_back(exec::MakeColumnRef(0, DataType::kInt64));
    groups.push_back(exec::MakeColumnRef(1, DataType::kInt64));
    return groups;
  };
  auto make_aggs = [] {
    std::vector<exec::AggregateSpec> aggs;
    exec::AggregateSpec sum;
    sum.function = exec::AggFunction::kSum;
    sum.argument = exec::MakeColumnRef(2, DataType::kFloat);
    sum.result_type = DataType::kFloat;
    sum.name = "s";
    aggs.push_back(std::move(sum));
    exec::AggregateSpec count;
    count.function = exec::AggFunction::kCount;
    count.argument = nullptr;
    count.result_type = DataType::kInt64;
    count.name = "c";
    aggs.push_back(std::move(count));
    return aggs;
  };

  ExecContext ctx;
  exec::HashAggregateOperator hash_agg(ScanAll(table), make_groups(), {"id", "node"},
                                       make_aggs());
  ASSERT_OK_AND_ASSIGN(auto hash_result, DrainOperator(&hash_agg, &ctx));

  exec::StreamingAggregateOperator stream_agg(ScanAll(table), make_groups(),
                                              {"id", "node"}, make_aggs(),
                                              p.prefix_count);
  ASSERT_OK_AND_ASSIGN(auto stream_result, DrainOperator(&stream_agg, &ctx));

  ASSERT_EQ(hash_result.num_rows, stream_result.num_rows);
  // Compare as maps (emission orders differ).
  std::map<std::pair<int64_t, int64_t>, std::pair<double, int64_t>> expected;
  for (int64_t r = 0; r < hash_result.num_rows; ++r) {
    expected[{hash_result.GetValue(r, 0).i, hash_result.GetValue(r, 1).i}] = {
        hash_result.GetValue(r, 2).AsDouble(), hash_result.GetValue(r, 3).i};
  }
  for (int64_t r = 0; r < stream_result.num_rows; ++r) {
    auto it = expected.find(
        {stream_result.GetValue(r, 0).i, stream_result.GetValue(r, 1).i});
    ASSERT_NE(it, expected.end());
    EXPECT_NEAR(stream_result.GetValue(r, 2).AsDouble(), it->second.first, 1e-4);
    EXPECT_EQ(stream_result.GetValue(r, 3).i, it->second.second);
  }
  // The streaming operator's state is bounded by groups per prefix.
  EXPECT_LE(stream_agg.peak_group_count(),
            p.prefix_count == 2 ? 1 : p.groups_per_prefix);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AggregateEquivalenceTest,
                         ::testing::Values(AggCase{100, 4, 1}, AggCase{5000, 16, 1},
                                           AggCase{3000, 1, 1}, AggCase{1, 1, 1},
                                           AggCase{0, 1, 1}));

TEST(AggregateTest, MinMaxAvgOverNegative) {
  auto t = MakeTable("t", {{"g", DataType::kInt64}, {"v", DataType::kFloat}},
                     {{I(0), F(-5.0f)}, {I(0), F(3.0f)}, {I(0), F(-1.0f)}});
  std::vector<exec::ExprPtr> groups;
  groups.push_back(exec::MakeColumnRef(0, DataType::kInt64));
  std::vector<exec::AggregateSpec> aggs;
  for (auto fn : {exec::AggFunction::kMin, exec::AggFunction::kMax,
                  exec::AggFunction::kAvg}) {
    exec::AggregateSpec spec;
    spec.function = fn;
    spec.argument = exec::MakeColumnRef(1, DataType::kFloat);
    spec.result_type = DataType::kFloat;
    spec.name = "x";
    aggs.push_back(std::move(spec));
  }
  exec::HashAggregateOperator agg(ScanAll(t), std::move(groups), {"g"},
                                  std::move(aggs));
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(auto result, DrainOperator(&agg, &ctx));
  ASSERT_EQ(result.num_rows, 1);
  EXPECT_FLOAT_EQ(static_cast<float>(result.GetValue(0, 1).AsDouble()), -5.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(result.GetValue(0, 2).AsDouble()), 3.0f);
  EXPECT_NEAR(result.GetValue(0, 3).AsDouble(), -1.0, 1e-6);
}

// ---------- sort / limit ----------

TEST(SortTest, MultiKeyMixedDirections) {
  auto t = MakeTable("t", {{"a", DataType::kInt64}, {"b", DataType::kInt64}},
                     {{I(1), I(5)}, {I(2), I(1)}, {I(1), I(9)}, {I(2), I(7)}});
  std::vector<exec::ExprPtr> keys;
  keys.push_back(exec::MakeColumnRef(0, DataType::kInt64));
  keys.push_back(exec::MakeColumnRef(1, DataType::kInt64));
  exec::SortOperator sort(ScanAll(t), std::move(keys), {true, false});
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(auto result, DrainOperator(&sort, &ctx));
  EXPECT_EQ(result.GetValue(0, 1).i, 9);  // a=1 desc b
  EXPECT_EQ(result.GetValue(1, 1).i, 5);
  EXPECT_EQ(result.GetValue(2, 1).i, 7);  // a=2
  EXPECT_EQ(result.GetValue(3, 1).i, 1);
}

// ---------- memory tracking ----------

TEST(MemoryTrackerTest, VectorTracking) {
  MemoryTracker& tracker = MemoryTracker::Global();
  int64_t before = tracker.current_bytes();
  {
    exec::Vector v(DataType::kFloat);
    v.Resize(100000);
    EXPECT_GE(tracker.current_bytes(), before + 400000);
  }
  EXPECT_EQ(tracker.current_bytes(), before);
}

TEST(MemoryTrackerTest, MoveTransfersOwnership) {
  MemoryTracker& tracker = MemoryTracker::Global();
  int64_t before = tracker.current_bytes();
  exec::Vector a(DataType::kInt64);
  a.Resize(1000);
  int64_t with_a = tracker.current_bytes();
  exec::Vector b = std::move(a);
  EXPECT_EQ(tracker.current_bytes(), with_a);  // no double count
  b.Clear();
  exec::Vector c(DataType::kInt64);
  c = std::move(b);
  (void)c;
  EXPECT_GE(tracker.current_bytes(), before);
}

}  // namespace
}  // namespace indbml
