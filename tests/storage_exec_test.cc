#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>

#include "common/config.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/simd.h"
#include "exec/aggregate.h"
#include "exec/basic_operators.h"
#include "exec/groupjoin.h"
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

// ---------- typed join / aggregation kernels vs naive references ----------

using Row = std::vector<Value>;

/// Bitwise value identity (so 0.0 and -0.0 differ here).
bool SameValue(const Value& a, const Value& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case DataType::kBool:
      return a.b == b.b;
    case DataType::kInt64:
      return a.i == b.i;
    case DataType::kFloat:
      return std::memcmp(&a.f, &b.f, sizeof(float)) == 0;
  }
  return false;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

std::string RowString(const Row& row) {
  std::string out;
  for (const Value& v : row) out += v.ToString() + " ";
  return out;
}

/// Drains an open operator, asserting every chunk honours the vector size.
std::vector<Row> DrainRows(exec::Operator* op, ExecContext* ctx) {
  std::vector<Row> rows;
  bool eof = false;
  while (!eof) {
    DataChunk chunk;
    chunk.Reset(op->output_types());
    const Status st = op->Next(ctx, &chunk, &eof);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) break;
    EXPECT_LE(chunk.size, kDefaultVectorSize);
    for (int64_t r = 0; r < chunk.size; ++r) {
      Row row;
      for (int64_t c = 0; c < chunk.num_columns(); ++c) {
        row.push_back(chunk.column(c).GetValue(r));
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::vector<Row> RunRows(exec::Operator* op) {
  ExecContext ctx;
  EXPECT_OK(op->Open(&ctx));
  std::vector<Row> rows = DrainRows(op, &ctx);
  op->Close(&ctx);
  return rows;
}

std::vector<Row> TableRows(const storage::Table& t, int64_t begin, int64_t end) {
  std::vector<Row> rows;
  for (int64_t r = begin; r < end; ++r) {
    Row row;
    for (int c = 0; c < t.num_columns(); ++c) row.push_back(t.column(c).GetValue(r));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Nested-loop inner join on (a BIGINT, b FLOAT) = columns 0 and 1 of both
/// sides: probe order, then build order within a probe row.
std::vector<Row> NestedLoopJoin(const std::vector<Row>& probe,
                                const std::vector<Row>& build) {
  std::vector<Row> out;
  for (const Row& p : probe) {
    for (const Row& b : build) {
      if (p[0].i != b[0].i || p[1].f != b[1].f) continue;  // -0.0 == 0.0
      Row row = p;
      row.insert(row.end(), b.begin(), b.end());
      out.push_back(std::move(row));
    }
  }
  return out;
}

void ExpectSameRows(const std::vector<Row>& actual, const std::vector<Row>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(SameRow(actual[i], expected[i]))
        << "row " << i << ": " << RowString(actual[i]) << "vs "
        << RowString(expected[i]);
  }
}

/// (a BIGINT, b FLOAT, tag BIGINT) with a in [0, 4) and b drawn from a few
/// values including both zeros; tag = `tag_base` + row number.
storage::TablePtr MakeKeyTable(const std::string& name, int64_t rows, uint64_t seed,
                               int64_t tag_base) {
  const float floats[] = {0.0f, -0.0f, 1.5f, -2.25f};
  Random rng(seed);
  auto t = std::make_shared<storage::Table>(
      name, std::vector<storage::Field>{
                {"a", DataType::kInt64}, {"b", DataType::kFloat}, {"tag", DataType::kInt64}});
  for (int64_t r = 0; r < rows; ++r) {
    INDBML_CHECK(t->AppendRow({I(static_cast<int64_t>(rng.NextUint64(4))),
                               F(floats[rng.NextUint64(4)]), I(tag_base + r)})
                     .ok());
  }
  t->Finalize();
  return t;
}

std::vector<exec::ExprPtr> TwoColumnKeys() {
  std::vector<exec::ExprPtr> keys;
  keys.push_back(exec::MakeColumnRef(0, DataType::kInt64));
  keys.push_back(exec::MakeColumnRef(1, DataType::kFloat));
  return keys;
}

TEST(HashJoinTest, TwoColumnKeysMatchNestedLoopInOrder) {
  // 600 random build rows over 12 distinct keys (0.0 and -0.0 are one), so
  // every probe row matches ~50 of them and many straddle a 1024-row cut.
  // Between them sit 1 100 rows of key (3, -0.0): one probe row with that
  // key (or (3, 0.0)) alone has more matches than fit in one chunk.
  auto probe = MakeKeyTable("probe", 700, 7, 0);
  auto build = std::make_shared<storage::Table>(
      "build", std::vector<storage::Field>{
                   {"a", DataType::kInt64}, {"b", DataType::kFloat}, {"tag", DataType::kInt64}});
  Random rng(11);
  const float floats[] = {0.0f, -0.0f, 1.5f, -2.25f};
  for (int64_t r = 0; r < 1700; ++r) {
    const bool heavy = r >= 300 && r < 1400;
    INDBML_CHECK(build
                     ->AppendRow({I(heavy ? 3 : static_cast<int64_t>(rng.NextUint64(4))),
                                  F(heavy ? -0.0f : floats[rng.NextUint64(4)]),
                                  I(10000 + r)})
                     .ok());
  }
  build->Finalize();
  exec::HashJoinOperator join(ScanAll(probe), ScanAll(build), TwoColumnKeys(),
                              TwoColumnKeys());
  const std::vector<Row> actual = RunRows(&join);
  const std::vector<Row> expected = NestedLoopJoin(
      TableRows(*probe, 0, probe->num_rows()), TableRows(*build, 0, build->num_rows()));
  EXPECT_GT(expected.size(), 100000u);
  ExpectSameRows(actual, expected);
}

TEST(HashJoinTest, SelectedProbeAndEmptySides) {
  auto probe = MakeKeyTable("probe", 2000, 3, 0);
  auto build = MakeKeyTable("build", 50, 5, 10000);
  // Keep probe rows whose tag is not a multiple of 3: a selection vector.
  auto filtered = [&](int64_t keep_mod) {
    return std::make_unique<exec::FilterOperator>(
        ScanAll(probe),
        exec::MakeBinary(exec::BinaryOp::kNe,
                         exec::MakeBinary(exec::BinaryOp::kMod,
                                          exec::MakeColumnRef(2, DataType::kInt64),
                                          exec::MakeConstant(I(keep_mod))),
                         exec::MakeConstant(I(0))));
  };
  std::vector<Row> kept;
  for (const Row& row : TableRows(*probe, 0, probe->num_rows())) {
    if (row[2].i % 3 != 0) kept.push_back(row);
  }
  {
    exec::HashJoinOperator join(filtered(3), ScanAll(build), TwoColumnKeys(),
                                TwoColumnKeys());
    ExpectSameRows(RunRows(&join),
                   NestedLoopJoin(kept, TableRows(*build, 0, build->num_rows())));
  }
  {
    // x % 1 != 0 keeps nothing: an empty probe side.
    exec::HashJoinOperator join(filtered(1), ScanAll(build), TwoColumnKeys(),
                                TwoColumnKeys());
    EXPECT_TRUE(RunRows(&join).empty());
  }
  {
    auto empty = MakeKeyTable("empty", 0, 1, 0);
    exec::HashJoinOperator join(filtered(3), ScanAll(empty), TwoColumnKeys(),
                                TwoColumnKeys());
    EXPECT_TRUE(RunRows(&join).empty());
  }
}

TEST(HashJoinTest, MorselDrivenBuildSideIsRebuiltPerRewind) {
  auto probe = MakeKeyTable("probe", 900, 21, 0);
  auto build = MakeKeyTable("build", 300, 23, 10000);
  std::vector<int> cols = {0, 1, 2};
  exec::HashJoinOperator join(
      ScanAll(probe),
      std::make_unique<exec::TableScanOperator>(exec::TableScanOperator::MorselBound{},
                                                build, cols,
                                                std::vector<exec::ScanPredicate>{}),
      TwoColumnKeys(), TwoColumnKeys());
  ASSERT_TRUE(join.MorselDriven());
  ExecContext ctx;
  ASSERT_OK(join.Open(&ctx));
  const std::vector<Row> probe_rows = TableRows(*probe, 0, probe->num_rows());
  for (auto [begin, end] : {std::pair<int64_t, int64_t>{0, 120}, {120, 300}, {40, 41}}) {
    ctx.morsel_begin = begin;
    ctx.morsel_end = end;
    ASSERT_OK(join.Rewind(&ctx));
    ExpectSameRows(DrainRows(&join, &ctx),
                   NestedLoopJoin(probe_rows, TableRows(*build, begin, end)));
  }
  join.Close(&ctx);
}

TEST(CrossJoinTest, MatchesNestedLoopAcrossChunkCuts) {
  auto left = MakeKeyTable("left", 1500, 31, 0);
  auto right = MakeKeyTable("right", 3, 37, 10000);
  exec::CrossJoinOperator join(ScanAll(left), ScanAll(right));
  std::vector<Row> expected;
  for (const Row& l : TableRows(*left, 0, left->num_rows())) {
    for (const Row& r : TableRows(*right, 0, right->num_rows())) {
      Row row = l;
      row.insert(row.end(), r.begin(), r.end());
      expected.push_back(std::move(row));
    }
  }
  ExpectSameRows(RunRows(&join), expected);
}

TEST(AggregateTest, BigintAggregatesAreExact) {
  // SUM/MIN/MAX over BIGINT must not round through double: 2^53 + 1 is the
  // first integer a double cannot hold.
  const int64_t big = (int64_t{1} << 53) + 1;
  auto t = MakeTable("t", {{"g", DataType::kInt64}, {"x", DataType::kInt64}},
                     {{I(0), I(big)}, {I(0), I(0)}, {I(1), I(big)}, {I(1), I(big + 2)}});
  auto make_aggs = [] {
    std::vector<exec::AggregateSpec> aggs;
    for (auto fn : {exec::AggFunction::kSum, exec::AggFunction::kMin,
                    exec::AggFunction::kMax}) {
      exec::AggregateSpec spec;
      spec.function = fn;
      spec.argument = exec::MakeColumnRef(1, DataType::kInt64);
      spec.result_type = DataType::kInt64;
      spec.name = exec::AggFunctionName(fn);
      aggs.push_back(std::move(spec));
    }
    return aggs;
  };
  auto make_groups = [] {
    std::vector<exec::ExprPtr> groups;
    groups.push_back(exec::MakeColumnRef(0, DataType::kInt64));
    return groups;
  };
  exec::HashAggregateOperator hash_agg(ScanAll(t), make_groups(), {"g"}, make_aggs());
  exec::StreamingAggregateOperator stream_agg(ScanAll(t), make_groups(), {"g"},
                                              make_aggs(), 1);
  for (exec::Operator* agg : std::vector<exec::Operator*>{&hash_agg, &stream_agg}) {
    const std::vector<Row> rows = RunRows(agg);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0][1].i, big);  // SUM {2^53 + 1, 0}
    EXPECT_EQ(rows[0][2].i, 0);
    EXPECT_EQ(rows[0][3].i, big);
    EXPECT_EQ(rows[1][2].i, big);  // MIN/MAX {2^53 + 1, 2^53 + 3}
    EXPECT_EQ(rows[1][3].i, big + 2);
  }
}

/// Normalised group key as the aggregates see it: -0.0 folds into 0.0.
uint64_t KeyBits(const Value& v) {
  switch (v.type) {
    case DataType::kBool:
      return v.b ? 1 : 0;
    case DataType::kInt64:
      return static_cast<uint64_t>(v.i);
    case DataType::kFloat: {
      const float f = v.f == 0.0f ? 0.0f : v.f;
      uint32_t bits;
      std::memcpy(&bits, &f, sizeof(bits));
      return bits;
    }
  }
  return 0;
}

TEST(AggregateTest, EveryFunctionAndTypeMatchesReference) {
  // (g BIGINT sorted, h FLOAT, k BOOL, xi BIGINT, xf FLOAT, xb BOOL). Each of
  // the 3 g values holds up to ~2 000 (h, k) groups, so both the hash
  // aggregate's emission and the streaming flush of one prefix cross the
  // 1024-row cut.
  Random rng(99);
  storage::Table t("t", {{"g", DataType::kInt64},
                         {"h", DataType::kFloat},
                         {"k", DataType::kBool},
                         {"xi", DataType::kInt64},
                         {"xf", DataType::kFloat},
                         {"xb", DataType::kBool}});
  for (int64_t r = 0; r < 12000; ++r) {
    float h = static_cast<float>(rng.NextUint64(1000)) * 0.5f;
    if (h == 0.0f && rng.NextUint64(2) == 0) h = -0.0f;
    const int64_t xi = static_cast<int64_t>(rng.NextUint64()) >> 1;  // wraps in SUM
    INDBML_CHECK(t.AppendRow({I(r / 4000), F(h), testutil::B(rng.NextUint64(2) == 1),
                              I(xi), F(rng.NextFloat(-10, 10)),
                              testutil::B(rng.NextUint64(3) == 0)})
                     .ok());
  }
  t.Finalize();
  auto table = std::make_shared<storage::Table>(std::move(t));

  struct AggCol {
    exec::AggFunction fn;
    int arg;  ///< -1: COUNT(*)
  };
  std::vector<AggCol> cols = {{exec::AggFunction::kCount, -1}};
  for (auto fn : {exec::AggFunction::kSum, exec::AggFunction::kCount,
                  exec::AggFunction::kMin, exec::AggFunction::kMax,
                  exec::AggFunction::kAvg}) {
    for (int arg : {3, 4, 5}) cols.push_back({fn, arg});
  }
  auto arg_type = [&](int arg) { return table->fields()[static_cast<size_t>(arg)].type; };
  auto result_type = [&](const AggCol& c) {
    if (c.arg < 0 || c.fn == exec::AggFunction::kCount) return DataType::kInt64;
    if (c.fn == exec::AggFunction::kAvg) return DataType::kFloat;
    return arg_type(c.arg);
  };
  auto make_aggs = [&] {
    std::vector<exec::AggregateSpec> aggs;
    for (const AggCol& c : cols) {
      exec::AggregateSpec spec;
      spec.function = c.fn;
      spec.argument = c.arg < 0 ? nullptr : exec::MakeColumnRef(c.arg, arg_type(c.arg));
      spec.result_type = result_type(c);
      spec.name = "a";
      aggs.push_back(std::move(spec));
    }
    return aggs;
  };
  auto make_groups = [] {
    std::vector<exec::ExprPtr> groups;
    groups.push_back(exec::MakeColumnRef(0, DataType::kInt64));
    groups.push_back(exec::MakeColumnRef(1, DataType::kFloat));
    groups.push_back(exec::MakeColumnRef(2, DataType::kBool));
    return groups;
  };

  // Reference: std::map over normalised keys, rows folded in input order
  // (BIGINT SUM/MIN/MAX exact, everything else in double).
  struct RefState {
    int64_t count = 0;
    uint64_t isum = 0;
    int64_t imin = 0, imax = 0;
    double dsum = 0, dmin = 0, dmax = 0;
  };
  std::map<std::vector<uint64_t>, std::pair<Row, std::vector<RefState>>> ref;
  for (const Row& row : TableRows(*table, 0, table->num_rows())) {
    auto& [keys, states] =
        ref[{KeyBits(row[0]), KeyBits(row[1]), KeyBits(row[2])}];
    if (states.empty()) {
      Value h = row[1];
      if (h.f == 0.0f) h.f = 0.0f;
      keys = {row[0], h, row[2]};
      states.resize(cols.size());
    }
    for (size_t a = 0; a < cols.size(); ++a) {
      RefState& s = states[a];
      if (cols[a].arg >= 0) {
        const Value& v = row[static_cast<size_t>(cols[a].arg)];
        const double d = v.AsDouble();
        if (v.type == DataType::kInt64) {
          s.isum += static_cast<uint64_t>(v.i);
          if (s.count == 0 || v.i < s.imin) s.imin = v.i;
          if (s.count == 0 || v.i > s.imax) s.imax = v.i;
        }
        s.dsum += d;
        if (s.count == 0 || d < s.dmin) s.dmin = d;
        if (s.count == 0 || d > s.dmax) s.dmax = d;
      }
      ++s.count;
    }
  }
  std::vector<Row> expected;
  for (auto& [bits, entry] : ref) {
    Row row = entry.first;
    for (size_t a = 0; a < cols.size(); ++a) {
      const RefState& s = entry.second[a];
      const AggCol& c = cols[a];
      const bool exact = c.arg >= 0 && arg_type(c.arg) == DataType::kInt64;
      if (c.arg < 0 || c.fn == exec::AggFunction::kCount) {
        row.push_back(I(s.count));
        continue;
      }
      double d = 0;
      int64_t i = 0;
      switch (c.fn) {
        case exec::AggFunction::kSum:
          d = s.dsum;
          i = static_cast<int64_t>(s.isum);
          break;
        case exec::AggFunction::kMin:
          d = s.dmin;
          i = s.imin;
          break;
        case exec::AggFunction::kMax:
          d = s.dmax;
          i = s.imax;
          break;
        default:  // AVG
          row.push_back(F(static_cast<float>(s.dsum / static_cast<double>(s.count))));
          continue;
      }
      switch (result_type(c)) {
        case DataType::kInt64:
          row.push_back(I(exact ? i : static_cast<int64_t>(d)));
          break;
        case DataType::kFloat:
          row.push_back(F(static_cast<float>(d)));
          break;
        case DataType::kBool:
          row.push_back(testutil::B(d != 0));
          break;
      }
    }
    expected.push_back(std::move(row));
  }

  auto sorted = [](std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      for (size_t k = 0; k < 3; ++k) {
        if (KeyBits(a[k]) != KeyBits(b[k])) return KeyBits(a[k]) < KeyBits(b[k]);
      }
      return false;
    });
    return rows;
  };
  exec::HashAggregateOperator hash_agg(ScanAll(table), make_groups(), {"g", "h", "k"},
                                       make_aggs());
  const std::vector<Row> hash_rows = RunRows(&hash_agg);
  ExpectSameRows(sorted(hash_rows), sorted(expected));
  // Streaming with the sorted g as prefix, and with all three keys as the
  // prefix over a (stable, so per-group row order is kept) sort of the input.
  exec::StreamingAggregateOperator by_g(ScanAll(table), make_groups(), {"g", "h", "k"},
                                        make_aggs(), 1);
  ExpectSameRows(sorted(RunRows(&by_g)), sorted(hash_rows));
  exec::StreamingAggregateOperator by_all(
      std::make_unique<exec::SortOperator>(ScanAll(table), make_groups(),
                                           std::vector<bool>{true, true, true}),
      make_groups(), {"g", "h", "k"}, make_aggs(), 3);
  ExpectSameRows(sorted(RunRows(&by_all)), sorted(hash_rows));
  EXPECT_EQ(by_all.peak_group_count(), 1);
}

// ---------- the one scan vs the discrete operators ----------

/// The double-domain rule of a pushed ScanPredicate, written out row by row.
bool ScalarCompare(double lhs, exec::BinaryOp op, double rhs) {
  switch (op) {
    case exec::BinaryOp::kEq:
      return lhs == rhs;
    case exec::BinaryOp::kNe:
      return lhs != rhs;
    case exec::BinaryOp::kLt:
      return lhs < rhs;
    case exec::BinaryOp::kLe:
      return lhs <= rhs;
    case exec::BinaryOp::kGt:
      return lhs > rhs;
    case exec::BinaryOp::kGe:
      return lhs >= rhs;
    default:
      return true;
  }
}

bool PushedPasses(const storage::Table& t, const std::vector<exec::ScanPredicate>& preds,
                  int64_t r) {
  for (const exec::ScanPredicate& p : preds) {
    const storage::Column& col = t.column(p.column);
    double v = 0;
    switch (col.type()) {
      case DataType::kInt64:
        v = static_cast<double>(col.GetInt64(r));
        break;
      case DataType::kFloat:
        v = col.GetFloat(r);
        break;
      case DataType::kBool:
        v = col.GetBool(r) ? 1 : 0;
        break;
    }
    if (!ScalarCompare(v, p.op, p.value.AsDouble())) return false;
  }
  return true;
}

constexpr int64_t kTwo53 = int64_t{1} << 53;

/// (id BIGINT = row number, i BIGINT, f FLOAT, b BOOL) over three full
/// zone-map blocks and a partial one. i and f mix random values with the
/// edge cases of the predicate rule: integers around 2^53, both zeros, NaN,
/// floats next to 0.1f and the floats on either side of 2^24 + 1.
storage::TablePtr MakeScanTable(uint64_t seed) {
  const int64_t ints[] = {0, 1, 2, 3, -2, kTwo53 - 1, kTwo53, kTwo53 + 1, kTwo53 + 2};
  const float floats[] = {0.0f,
                          -0.0f,
                          0.1f,
                          std::nextafter(0.1f, 1.0f),
                          std::nextafter(0.1f, 0.0f),
                          2.5f,
                          -3.0f,
                          16777216.0f,
                          16777218.0f,
                          std::numeric_limits<float>::quiet_NaN()};
  Random rng(seed);
  auto t = std::make_shared<storage::Table>(
      "t", std::vector<storage::Field>{{"id", DataType::kInt64},
                                       {"i", DataType::kInt64},
                                       {"f", DataType::kFloat},
                                       {"b", DataType::kBool}});
  const int64_t rows = 3 * t->rows_per_block() + 500;
  for (int64_t r = 0; r < rows; ++r) {
    const bool edge = rng.NextUint64(2) == 0;
    const int64_t i = edge ? ints[rng.NextUint64(9)]
                           : static_cast<int64_t>(rng.NextUint64(200)) - 100;
    const float f = edge ? floats[rng.NextUint64(10)] : rng.NextFloat(-8, 8);
    INDBML_CHECK(t->AppendRow({I(r), I(i), F(f), testutil::B(rng.NextUint64(2) == 0)}).ok());
  }
  t->Finalize();
  return t;
}

/// Two residual conditions over scan positions (i, f): i < 50, f >= -3.
std::vector<exec::ExprPtr> ScanResiduals() {
  std::vector<exec::ExprPtr> residuals;
  residuals.push_back(exec::MakeBinary(exec::BinaryOp::kLt,
                                       exec::MakeColumnRef(1, DataType::kInt64),
                                       exec::MakeConstant(Value::Int64(50))));
  residuals.push_back(exec::MakeBinary(exec::BinaryOp::kGe,
                                       exec::MakeColumnRef(2, DataType::kFloat),
                                       exec::MakeConstant(Value::Float(-3.0f))));
  return residuals;
}

/// ProjectOperator(FilterOperator*(scan without predicates)) emitting
/// `projection` then id: the discrete chain the one scan replaces, with
/// pushed predicates left to PushedPasses.
exec::OperatorPtr DiscreteScanChain(storage::TablePtr t, bool morsel_bound,
                                    const std::vector<exec::ExprPtr>& residuals,
                                    const std::vector<int>& projection) {
  const std::vector<int> all = {0, 1, 2, 3};
  exec::OperatorPtr op =
      morsel_bound
          ? std::make_unique<exec::TableScanOperator>(exec::TableScanOperator::MorselBound{},
                                                      t, all, std::vector<exec::ScanPredicate>{})
          : std::make_unique<exec::TableScanOperator>(
                t, storage::PartitionRange{0, t->num_rows()}, all,
                std::vector<exec::ScanPredicate>{});
  for (const auto& cond : residuals) {
    op = std::make_unique<exec::FilterOperator>(std::move(op), exec::CloneExpr(*cond));
  }
  std::vector<exec::ExprPtr> exprs;
  std::vector<std::string> names;
  for (int p : projection) {
    exprs.push_back(exec::MakeColumnRef(p, t->fields()[static_cast<size_t>(p)].type));
    names.push_back(t->fields()[static_cast<size_t>(p)].name);
  }
  exprs.push_back(exec::MakeColumnRef(0, DataType::kInt64));
  names.push_back("id");
  return std::make_unique<exec::ProjectOperator>(std::move(op), std::move(exprs),
                                                 std::move(names));
}

/// The discrete chain's rows that pass the pushed predicates, id dropped.
std::vector<Row> ExpectedScanRows(const storage::Table& t, std::vector<Row> chain_rows,
                                  const std::vector<exec::ScanPredicate>& preds) {
  std::vector<Row> expected;
  for (Row& row : chain_rows) {
    const int64_t id = row.back().i;
    row.pop_back();
    if (PushedPasses(t, preds, id)) expected.push_back(std::move(row));
  }
  return expected;
}

TEST(ScanTest, OneScanMatchesDiscreteChainAndScalarPredicateRule) {
  auto t = MakeScanTable(41);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Each literal is tried with all six compare ops. A Value literal is a
  // float32 or an int64, so the float-bound normalization is exercised by
  // int64 literals over the float column (2^24 + 1 is not a float).
  const std::vector<std::pair<int, Value>> literals = {
      {2, Value::Float(0.1f)},      {2, Value::Int64(16777217)},
      {2, Value::Float(nan)},       {2, Value::Float(-0.0f)},
      {2, Value::Float(0.0f)},      {1, Value::Float(2.5f)},
      {1, Value::Int64(kTwo53 + 1)}, {1, Value::Float(nan)},
      {1, Value::Int64(-2)},        {3, Value::Int64(1)},
      {3, Value::Float(0.5f)},      {0, Value::Int64(2 * t->rows_per_block() + 7)},
  };
  std::vector<std::vector<exec::ScanPredicate>> cases = {{}};
  for (const auto& [column, value] : literals) {
    for (auto op : {exec::BinaryOp::kEq, exec::BinaryOp::kNe, exec::BinaryOp::kLt,
                    exec::BinaryOp::kLe, exec::BinaryOp::kGt, exec::BinaryOp::kGe}) {
      exec::ScanPredicate p;
      p.column = column;
      p.op = op;
      p.value = value;
      cases.push_back({p});
    }
  }
  // Two predicates on different columns, one of them pruning blocks.
  cases.push_back({cases[cases.size() - 1][0], cases[1][0]});

  const std::vector<std::pair<int64_t, int64_t>> morsels = {
      {0, 100}, {100, 5000}, {4096, 8192}, {8100, t->num_rows()}, {300, 300}};
  int64_t pruned = 0;
  for (bool simd_on : {true, false}) {
    simd::ScopedEnable simd_scope(simd_on);
    for (bool with_residuals : {false, true}) {
      const std::vector<exec::ExprPtr> residuals =
          with_residuals ? ScanResiduals() : std::vector<exec::ExprPtr>{};
      const std::vector<int> projection =
          with_residuals ? std::vector<int>{3, 2, 1} : std::vector<int>{0, 1, 2, 3};
      for (const auto& preds : cases) {
        SCOPED_TRACE(::testing::Message()
                     << "simd=" << simd_on << " residuals=" << with_residuals
                     << " preds=" << preds.size() << " column="
                     << (preds.empty() ? -1 : preds[0].column) << " op="
                     << (preds.empty() ? -1 : static_cast<int>(preds[0].op)) << " value="
                     << (preds.empty() ? std::string() : preds[0].value.ToString()));
        auto clone = [&] {
          std::vector<exec::ExprPtr> out;
          for (const auto& r : residuals) out.push_back(exec::CloneExpr(*r));
          return out;
        };
        // Whole table.
        exec::TableScanOperator scan(t, {0, t->num_rows()}, {0, 1, 2, 3}, preds, clone(),
                                     with_residuals ? projection : std::vector<int>{});
        auto chain = DiscreteScanChain(t, false, residuals, projection);
        ExpectSameRows(RunRows(&scan), ExpectedScanRows(*t, RunRows(chain.get()), preds));
        pruned += scan.stats().blocks_pruned;

        // Morsel-bound, rewound over several ranges.
        exec::TableScanOperator morsel(exec::TableScanOperator::MorselBound{}, t,
                                       {0, 1, 2, 3}, preds, clone(),
                                       with_residuals ? projection : std::vector<int>{});
        auto morsel_chain = DiscreteScanChain(t, true, residuals, projection);
        ExecContext ctx;
        ASSERT_OK(morsel.Open(&ctx));
        ASSERT_OK(morsel_chain->Open(&ctx));
        for (auto [begin, end] : morsels) {
          ctx.morsel_begin = begin;
          ctx.morsel_end = end;
          ASSERT_OK(morsel.Rewind(&ctx));
          ASSERT_OK(morsel_chain->Rewind(&ctx));
          ExpectSameRows(DrainRows(&morsel, &ctx),
                         ExpectedScanRows(*t, DrainRows(morsel_chain.get(), &ctx), preds));
        }
        morsel.Close(&ctx);
        morsel_chain->Close(&ctx);
      }
    }
  }
  EXPECT_GT(pruned, 0) << "the id predicates must prune zone-map blocks";
}

// ---------- groupjoin ----------

/// Probe (p BIGINT sorted, a BIGINT, b FLOAT, xi BIGINT, xf FLOAT): p runs of
/// 7 rows cross the 1024-row scan chunks; keys as in MakeKeyTable plus a = 4,
/// which no build row has.
storage::TablePtr MakeGroupJoinProbe(int64_t rows, uint64_t seed) {
  const float floats[] = {0.0f, -0.0f, 1.5f, -2.25f};
  Random rng(seed);
  auto t = std::make_shared<storage::Table>(
      "probe", std::vector<storage::Field>{{"p", DataType::kInt64},
                                           {"a", DataType::kInt64},
                                           {"b", DataType::kFloat},
                                           {"xi", DataType::kInt64},
                                           {"xf", DataType::kFloat}});
  for (int64_t r = 0; r < rows; ++r) {
    INDBML_CHECK(t->AppendRow({I(r / 7), I(static_cast<int64_t>(rng.NextUint64(5))),
                               F(floats[rng.NextUint64(4)]),
                               I(static_cast<int64_t>(rng.NextUint64()) >> 1),
                               F(rng.NextFloat(-4, 4))})
                     .ok());
  }
  t->Finalize();
  return t;
}

/// Build (a BIGINT, b FLOAT, g BIGINT, h FLOAT, yi BIGINT, yf FLOAT): join
/// keys with duplicates and both zeros, rest keys (g, h) with both zeros
/// (six groups), and `heavy` rows of key (1, 1.5) after the first 100.
storage::TablePtr MakeGroupJoinBuild(int64_t rows, int64_t heavy, uint64_t seed) {
  const float floats[] = {0.0f, -0.0f, 1.5f, -2.25f};
  const float rest[] = {0.0f, -0.0f, 0.5f};
  Random rng(seed);
  auto t = std::make_shared<storage::Table>(
      "build", std::vector<storage::Field>{{"a", DataType::kInt64},
                                           {"b", DataType::kFloat},
                                           {"g", DataType::kInt64},
                                           {"h", DataType::kFloat},
                                           {"yi", DataType::kInt64},
                                           {"yf", DataType::kFloat}});
  for (int64_t r = 0; r < rows + heavy; ++r) {
    const bool is_heavy = r >= 100 && r < 100 + heavy;
    INDBML_CHECK(
        t->AppendRow({I(is_heavy ? 1 : static_cast<int64_t>(rng.NextUint64(4))),
                      F(is_heavy ? 1.5f : floats[rng.NextUint64(4)]),
                      I(static_cast<int64_t>(rng.NextUint64(3))), F(rest[rng.NextUint64(3)]),
                      I(static_cast<int64_t>(rng.NextUint64()) >> 1),
                      F(rng.NextFloat(-4, 4))})
            .ok());
  }
  t->Finalize();
  return t;
}

/// Builds `Aggregate(prefix p; rest g, h)` over `join(probe, build on a, b)`
/// twice: as HashJoinOperator -> StreamingAggregateOperator and as one
/// GroupJoinOperator. The aggregates are COUNT(*) and every AggFunction
/// over BIGINT (xi + yi) and FLOAT (xf * yf), arguments reading both sides.
struct GroupJoinPair {
  std::unique_ptr<exec::Operator> unfused;
  std::unique_ptr<exec::GroupJoinOperator> fused;
};

GroupJoinPair MakeGroupJoinPair(
    const std::function<exec::OperatorPtr()>& probe,
    const std::function<exec::OperatorPtr()>& build) {
  constexpr int64_t kProbeWidth = 5;
  // Column positions: the unfused aggregate reads the joined row (probe
  // columns, then build columns); the fused one reads a narrow chunk of
  // probe xi, xf and build yi, yf.
  auto make_aggs = [](bool narrow) {
    const int64_t xi = narrow ? 0 : 3, xf = narrow ? 1 : 4;
    const int64_t yi = narrow ? 2 : kProbeWidth + 4, yf = narrow ? 3 : kProbeWidth + 5;
    std::vector<exec::AggregateSpec> aggs;
    exec::AggregateSpec count_star;
    count_star.function = exec::AggFunction::kCount;
    count_star.result_type = DataType::kInt64;
    count_star.name = "n";
    aggs.push_back(std::move(count_star));
    for (auto fn : {exec::AggFunction::kSum, exec::AggFunction::kCount,
                    exec::AggFunction::kMin, exec::AggFunction::kMax,
                    exec::AggFunction::kAvg}) {
      for (bool is_float : {false, true}) {
        exec::AggregateSpec spec;
        spec.function = fn;
        spec.argument =
            is_float ? exec::MakeBinary(exec::BinaryOp::kMul,
                                        exec::MakeColumnRef(xf, DataType::kFloat),
                                        exec::MakeColumnRef(yf, DataType::kFloat))
                     : exec::MakeBinary(exec::BinaryOp::kAdd,
                                        exec::MakeColumnRef(xi, DataType::kInt64),
                                        exec::MakeColumnRef(yi, DataType::kInt64));
        spec.result_type = fn == exec::AggFunction::kCount ? DataType::kInt64
                           : fn == exec::AggFunction::kAvg || is_float ? DataType::kFloat
                                                                       : DataType::kInt64;
        spec.name = exec::AggFunctionName(fn);
        aggs.push_back(std::move(spec));
      }
    }
    return aggs;
  };
  auto key = [](int64_t col, DataType type) {
    std::vector<exec::ExprPtr> keys;
    keys.push_back(exec::MakeColumnRef(col, type));
    return keys;
  };
  auto probe_keys = [&] {
    std::vector<exec::ExprPtr> keys = key(1, DataType::kInt64);
    keys.push_back(exec::MakeColumnRef(2, DataType::kFloat));
    return keys;
  };
  std::vector<exec::ExprPtr> groups;
  groups.push_back(exec::MakeColumnRef(0, DataType::kInt64));
  groups.push_back(exec::MakeColumnRef(kProbeWidth + 2, DataType::kInt64));
  groups.push_back(exec::MakeColumnRef(kProbeWidth + 3, DataType::kFloat));
  GroupJoinPair pair;
  pair.unfused = std::make_unique<exec::StreamingAggregateOperator>(
      std::make_unique<exec::HashJoinOperator>(probe(), build(), probe_keys(),
                                               TwoColumnKeys()),
      std::move(groups), std::vector<std::string>{"p", "g", "h"}, make_aggs(false), 1);
  std::vector<exec::ExprPtr> rest = key(2, DataType::kInt64);
  rest.push_back(exec::MakeColumnRef(3, DataType::kFloat));
  pair.fused = std::make_unique<exec::GroupJoinOperator>(
      probe(), build(), probe_keys(), TwoColumnKeys(), std::vector<int>{3, 4},
      std::vector<int>{4, 5}, key(0, DataType::kInt64), std::move(rest),
      std::vector<std::string>{"p", "g", "h"}, make_aggs(true));
  return pair;
}

/// Drains an open operator into its non-empty chunks, asserting the vector
/// size bound.
std::vector<DataChunk> DrainChunks(exec::Operator* op, ExecContext* ctx) {
  std::vector<DataChunk> chunks;
  bool eof = false;
  while (!eof) {
    DataChunk chunk;
    chunk.Reset(op->output_types());
    const Status st = op->Next(ctx, &chunk, &eof);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) break;
    EXPECT_LE(chunk.size, kDefaultVectorSize);
    if (chunk.size > 0) chunks.push_back(std::move(chunk));
  }
  return chunks;
}

/// Same chunk cuts and the same bytes in every column.
void ExpectSameChunks(const std::vector<DataChunk>& actual,
                      const std::vector<DataChunk>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].size, expected[i].size) << "chunk " << i;
    ASSERT_EQ(actual[i].num_columns(), expected[i].num_columns());
    for (int64_t c = 0; c < actual[i].num_columns(); ++c) {
      exec::Vector a = actual[i].column(c);
      exec::Vector e = expected[i].column(c);
      a.Flatten();
      e.Flatten();
      ASSERT_EQ(a.type(), e.type());
      const size_t bytes =
          static_cast<size_t>(actual[i].size) * storage::DataTypeSize(a.type());
      const void* pa = a.type() == DataType::kInt64   ? static_cast<const void*>(a.ints())
                       : a.type() == DataType::kFloat ? static_cast<const void*>(a.floats())
                                                      : static_cast<const void*>(a.bools());
      const void* pe = e.type() == DataType::kInt64   ? static_cast<const void*>(e.ints())
                       : e.type() == DataType::kFloat ? static_cast<const void*>(e.floats())
                                                      : static_cast<const void*>(e.bools());
      EXPECT_EQ(std::memcmp(pa, pe, bytes), 0) << "chunk " << i << " column " << c;
    }
  }
}

std::vector<DataChunk> RunChunks(exec::Operator* op) {
  ExecContext ctx;
  EXPECT_OK(op->Open(&ctx));
  std::vector<DataChunk> chunks = DrainChunks(op, &ctx);
  op->Close(&ctx);
  return chunks;
}

TEST(GroupJoinTest, MatchesJoinThenStreamingAggregateBitForBit) {
  // 3 000 probe rows in prefixes of 7 over 1 350 build rows, 1 250 of them
  // of key (1, 1.5): each probe row of that key walks > 1 100 pairs, and the
  // probe rows of a = 4 walk none. The ~2 500 groups span several chunks.
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto probe = MakeGroupJoinProbe(3000, seed);
    auto build = MakeGroupJoinBuild(100, 1250, seed + 100);
    GroupJoinPair pair = MakeGroupJoinPair([&] { return ScanAll(probe); },
                                           [&] { return ScanAll(build); });
    const std::vector<DataChunk> expected = RunChunks(pair.unfused.get());
    ASSERT_GT(expected.size(), 1u);
    ExpectSameChunks(RunChunks(pair.fused.get()), expected);
  }
}

TEST(GroupJoinTest, FirstSeenGroupOrderWithinPrefix) {
  // Prefix 0's first probe row matches only group (g 1, h 0.5); its second
  // row adds (0, 0.0), which must come out second although it was numbered
  // first on the build side.
  auto probe = MakeTable("probe",
                         {{"p", DataType::kInt64}, {"a", DataType::kInt64},
                          {"b", DataType::kFloat}, {"xi", DataType::kInt64},
                          {"xf", DataType::kFloat}},
                         {{I(0), I(2), F(0.0f), I(1), F(1.0f)},
                          {I(0), I(1), F(-0.0f), I(2), F(2.0f)},
                          {I(1), I(1), F(0.0f), I(3), F(3.0f)}});
  auto build = MakeTable("build",
                         {{"a", DataType::kInt64}, {"b", DataType::kFloat},
                          {"g", DataType::kInt64}, {"h", DataType::kFloat},
                          {"yi", DataType::kInt64}, {"yf", DataType::kFloat}},
                         {{I(1), F(0.0f), I(0), F(0.0f), I(10), F(0.5f)},
                          {I(2), F(-0.0f), I(1), F(0.5f), I(20), F(0.25f)},
                          {I(1), F(0.0f), I(1), F(0.5f), I(30), F(2.0f)}});
  GroupJoinPair pair = MakeGroupJoinPair([&] { return ScanAll(probe); },
                                         [&] { return ScanAll(build); });
  const std::vector<DataChunk> fused = RunChunks(pair.fused.get());
  ExpectSameChunks(fused, RunChunks(pair.unfused.get()));
  ASSERT_EQ(fused.size(), 1u);
  ASSERT_EQ(fused[0].size, 4);
  const int64_t g[] = {1, 0, 0, 1};
  for (int64_t r = 0; r < 4; ++r) EXPECT_EQ(fused[0].column(1).GetValue(r).i, g[r]);
}

TEST(GroupJoinTest, SelectedProbeAndEmptyBuild) {
  auto probe = MakeGroupJoinProbe(2500, 5);
  auto build = MakeGroupJoinBuild(200, 0, 6);
  auto empty = MakeGroupJoinBuild(0, 0, 7);
  // Keep probe rows whose xi is odd: a selection vector on every chunk.
  auto filtered = [&] {
    return exec::OperatorPtr(std::make_unique<exec::FilterOperator>(
        ScanAll(probe),
        exec::MakeBinary(exec::BinaryOp::kNe,
                         exec::MakeBinary(exec::BinaryOp::kMod,
                                          exec::MakeColumnRef(3, DataType::kInt64),
                                          exec::MakeConstant(I(2))),
                         exec::MakeConstant(I(0)))));
  };
  {
    GroupJoinPair pair = MakeGroupJoinPair(filtered, [&] { return ScanAll(build); });
    const std::vector<DataChunk> expected = RunChunks(pair.unfused.get());
    ASSERT_FALSE(expected.empty());
    ExpectSameChunks(RunChunks(pair.fused.get()), expected);
  }
  {
    GroupJoinPair pair = MakeGroupJoinPair(filtered, [&] { return ScanAll(empty); });
    EXPECT_TRUE(RunChunks(pair.fused.get()).empty());
    EXPECT_TRUE(RunChunks(pair.unfused.get()).empty());
  }
}

TEST(GroupJoinTest, MorselDrivenBuildSideIsRebuiltPerRewind) {
  auto probe = MakeGroupJoinProbe(1500, 8);
  auto build = MakeGroupJoinBuild(400, 300, 9);
  auto morsel_build = [&] {
    return exec::OperatorPtr(std::make_unique<exec::TableScanOperator>(
        exec::TableScanOperator::MorselBound{}, build, std::vector<int>{0, 1, 2, 3, 4, 5},
        std::vector<exec::ScanPredicate>{}));
  };
  GroupJoinPair pair = MakeGroupJoinPair([&] { return ScanAll(probe); }, morsel_build);
  ASSERT_TRUE(pair.fused->MorselDriven());
  ExecContext fused_ctx;
  ExecContext unfused_ctx;
  ASSERT_OK(pair.fused->Open(&fused_ctx));
  ASSERT_OK(pair.unfused->Open(&unfused_ctx));
  for (auto [begin, end] :
       {std::pair<int64_t, int64_t>{0, 150}, {150, 700}, {90, 91}, {700, 700}}) {
    SCOPED_TRACE("morsel " + std::to_string(begin) + ".." + std::to_string(end));
    for (ExecContext* ctx : {&fused_ctx, &unfused_ctx}) {
      ctx->morsel_begin = begin;
      ctx->morsel_end = end;
    }
    ASSERT_OK(pair.fused->Rewind(&fused_ctx));
    ASSERT_OK(pair.unfused->Rewind(&unfused_ctx));
    ExpectSameChunks(DrainChunks(pair.fused.get(), &fused_ctx),
                     DrainChunks(pair.unfused.get(), &unfused_ctx));
  }
  pair.fused->Close(&fused_ctx);
  pair.unfused->Close(&unfused_ctx);
}

// ---------- key-run join table ----------

using JoinKey = std::pair<int64_t, float>;

/// (a BIGINT, b FLOAT, tag BIGINT) with the join keys `keys` in order; tag =
/// `tag_base` + row number, so a pair names its build row.
storage::TablePtr MakeKeyTableFrom(const std::string& name, const std::vector<JoinKey>& keys,
                                   int64_t tag_base) {
  auto t = std::make_shared<storage::Table>(
      name, std::vector<storage::Field>{
                {"a", DataType::kInt64}, {"b", DataType::kFloat}, {"tag", DataType::kInt64}});
  for (size_t r = 0; r < keys.size(); ++r) {
    INDBML_CHECK(t->AppendRow({I(keys[r].first), F(keys[r].second),
                               I(tag_base + static_cast<int64_t>(r))})
                     .ok());
  }
  t->Finalize();
  return t;
}

/// MakeGroupJoinBuild's columns with the join keys `keys` in order and
/// random rest keys and arguments.
storage::TablePtr MakeGroupJoinBuildFrom(const std::vector<JoinKey>& keys, uint64_t seed) {
  const float rest[] = {0.0f, -0.0f, 0.5f};
  Random rng(seed);
  auto t = std::make_shared<storage::Table>(
      "build", std::vector<storage::Field>{{"a", DataType::kInt64},
                                           {"b", DataType::kFloat},
                                           {"g", DataType::kInt64},
                                           {"h", DataType::kFloat},
                                           {"yi", DataType::kInt64},
                                           {"yf", DataType::kFloat}});
  for (const JoinKey& key : keys) {
    INDBML_CHECK(t->AppendRow({I(key.first), F(key.second),
                               I(static_cast<int64_t>(rng.NextUint64(3))),
                               F(rest[rng.NextUint64(3)]),
                               I(static_cast<int64_t>(rng.NextUint64()) >> 1),
                               F(rng.NextFloat(-4, 4))})
                     .ok());
  }
  t->Finalize();
  return t;
}

/// Keys with run lengths `lengths`, either one key after another or dealt
/// round-robin (A B C A B C ...) until each key's rows are out. The keys are
/// (0, 0.0), (1, 1.5), (2, -2.25), (3, -0.0), ... in MakeGroupJoinProbe's
/// key space.
std::vector<JoinKey> RunKeys(const std::vector<int64_t>& lengths, bool round_robin) {
  const float floats[] = {0.0f, 1.5f, -2.25f, -0.0f};
  std::vector<JoinKey> keys;
  std::vector<int64_t> left = lengths;
  for (bool more = true; more;) {
    more = false;
    for (size_t k = 0; k < left.size(); ++k) {
      const int64_t take = round_robin ? std::min<int64_t>(left[k], 1) : left[k];
      for (int64_t i = 0; i < take; ++i) {
        keys.emplace_back(static_cast<int64_t>(k), floats[k % 4]);
      }
      left[k] -= take;
      more = more || left[k] > 0;
    }
  }
  return keys;
}

/// Runs a hash join of `probe` against `build` on (a, b) and checks it
/// against the nested-loop reference row for row, with every chunk but the
/// last full; the build must choose key runs iff `key_runs`.
void ExpectJoinMatchesNestedLoop(const storage::TablePtr& probe,
                                 const storage::TablePtr& build, bool key_runs) {
  {
    exec::HashJoinPairs pairs(ScanAll(probe), ScanAll(build), TwoColumnKeys(),
                              TwoColumnKeys());
    ExecContext ctx;
    ASSERT_OK(pairs.Open(&ctx));
    ASSERT_OK(pairs.EnsureBuilt(&ctx));
    EXPECT_EQ(pairs.key_runs(), key_runs);
    pairs.Close(&ctx);
  }
  exec::HashJoinOperator join(ScanAll(probe), ScanAll(build), TwoColumnKeys(),
                              TwoColumnKeys());
  const std::vector<DataChunk> chunks = RunChunks(&join);
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {
    ASSERT_EQ(chunks[i].size, kDefaultVectorSize) << "chunk " << i;
  }
  std::vector<Row> rows;
  for (const DataChunk& chunk : chunks) {
    for (int64_t r = 0; r < chunk.size; ++r) {
      Row row;
      for (int64_t c = 0; c < chunk.num_columns(); ++c) {
        row.push_back(chunk.column(c).GetValue(r));
      }
      rows.push_back(std::move(row));
    }
  }
  ExpectSameRows(rows, NestedLoopJoin(TableRows(*probe, 0, probe->num_rows()),
                                      TableRows(*build, 0, build->num_rows())));
}

TEST(JoinRunTest, InterleavedRepeatedKeysKeepBuildOrder) {
  // A B C A B C ...: twelve keys (0.0 and -0.0 alternate within a key)
  // spread over 2 400 rows, so the build is regrouped into runs and each
  // run must keep its rows in build order.
  const float floats[] = {0.0f, 1.5f, -2.25f};
  std::vector<JoinKey> keys;
  for (int64_t r = 0; r < 2400; ++r) {
    const float b = floats[(r / 4) % 3];
    keys.emplace_back((r % 4), b == 0.0f && r % 8 < 4 ? -0.0f : b);
  }
  ExpectJoinMatchesNestedLoop(MakeKeyTable("probe", 400, 41, 0),
                              MakeKeyTableFrom("build", keys, 10000), true);
}

TEST(JoinRunTest, KeysSharingBucketsMatchNestedLoop) {
  // 3 000 distinct keys, each four times (all of them once, then all
  // again, ...): key runs, and 3 000 keys in 8 192 buckets share buckets
  // many times over.
  std::vector<JoinKey> keys;
  for (int64_t r = 0; r < 12000; ++r) keys.emplace_back(r % 3000, r < 6000 ? 0.0f : -0.0f);
  std::vector<JoinKey> probe_keys;
  Random rng(43);
  for (int64_t r = 0; r < 1500; ++r) {
    probe_keys.emplace_back(static_cast<int64_t>(rng.NextUint64(3500)),
                            rng.NextUint64(2) == 0 ? 0.0f : -0.0f);
  }
  ExpectJoinMatchesNestedLoop(MakeKeyTableFrom("probe", probe_keys, 0),
                              MakeKeyTableFrom("build", keys, 10000), true);
}

TEST(JoinRunTest, RunsCutAtTheBatchLimitResumeInPlace) {
  // Runs of 1 023, 1 024, 1 025 and 1 100 rows, probed in an order that
  // cuts them at every offset; once already grouped (the build is kept as
  // drained) and once dealt round-robin (the build is regrouped).
  std::vector<JoinKey> probe_keys = {{0, 0.0f},  {1, 1.5f},  {2, -2.25f}, {3, 0.0f},
                                     {9, 0.0f},  {3, -0.0f}, {2, -2.25f}, {1, 1.5f},
                                     {0, -0.0f}, {0, 0.0f}};
  for (bool round_robin : {false, true}) {
    SCOPED_TRACE(round_robin ? "round robin" : "grouped");
    ExpectJoinMatchesNestedLoop(
        MakeKeyTableFrom("probe", probe_keys, 0),
        MakeKeyTableFrom("build", RunKeys({1023, 1024, 1025, 1100}, round_robin), 10000),
        true);
  }
}

TEST(JoinRunTest, MorselDrivenBuildRepetitionDiffersPerMorsel) {
  // Rows [0, 300) have unique keys (row chains); rows [300, 900) repeat
  // five keys round-robin (key runs). Morsels of either kind and across the
  // border are rebuilt on each Rewind.
  std::vector<JoinKey> keys;
  for (int64_t r = 0; r < 900; ++r) {
    keys.emplace_back(r < 300 ? r : r % 5, r % 2 == 0 ? 0.0f : -0.0f);
  }
  auto build = MakeKeyTableFrom("build", keys, 10000);
  std::vector<JoinKey> probe_keys;
  Random rng(47);
  for (int64_t r = 0; r < 700; ++r) {
    probe_keys.emplace_back(static_cast<int64_t>(rng.NextUint64(320)), 0.0f);
  }
  auto probe = MakeKeyTableFrom("probe", probe_keys, 0);
  exec::HashJoinOperator join(
      ScanAll(probe),
      std::make_unique<exec::TableScanOperator>(exec::TableScanOperator::MorselBound{},
                                                build, std::vector<int>{0, 1, 2},
                                                std::vector<exec::ScanPredicate>{}),
      TwoColumnKeys(), TwoColumnKeys());
  ExecContext ctx;
  ASSERT_OK(join.Open(&ctx));
  const std::vector<Row> probe_rows = TableRows(*probe, 0, probe->num_rows());
  for (auto [begin, end] : {std::pair<int64_t, int64_t>{0, 300}, {300, 900}, {250, 400},
                            {299, 301}, {0, 300}}) {
    SCOPED_TRACE("morsel " + std::to_string(begin) + ".." + std::to_string(end));
    ctx.morsel_begin = begin;
    ctx.morsel_end = end;
    ASSERT_OK(join.Rewind(&ctx));
    ExpectSameRows(DrainRows(&join, &ctx),
                   NestedLoopJoin(probe_rows, TableRows(*build, begin, end)));
  }
  join.Close(&ctx);
}

TEST(JoinRunTest, LayoutFollowsMeasuredKeyRepetition) {
  // Every key repeated kRunRowsPerKey (4) times lays the build out in key
  // runs; every key 3 times, or unique keys, keeps row chains. Both sides
  // of the threshold, dealt round-robin, match the nested loop in order.
  for (auto [per_key, runs] : {std::pair<int64_t, bool>{4, true}, {3, false}, {1, false}}) {
    SCOPED_TRACE(std::to_string(per_key) + " rows per key");
    std::vector<JoinKey> keys;
    for (int64_t r = 0; r < 300 * per_key; ++r) keys.emplace_back(r % 300, 0.0f);
    auto build = MakeKeyTableFrom("build", keys, 10000);
    std::vector<JoinKey> probe_keys;
    for (int64_t r = 0; r < 700; ++r) {
      probe_keys.emplace_back((r * 7) % 320, r % 2 == 0 ? 0.0f : -0.0f);
    }
    ExpectJoinMatchesNestedLoop(MakeKeyTableFrom("probe", probe_keys, 0), build, runs);
  }
}

TEST(JoinRunTest, GroupJoinConsumesRunsBitForBit) {
  // The groupjoin against HashJoin -> StreamingAggregate on the run shapes
  // above: interleaved keys, runs cut by the batch limit (grouped and
  // regrouped builds), keys too rare for runs (row chains), and a selected
  // probe chunk.
  auto probe = MakeGroupJoinProbe(600, 51);
  auto filtered = [&] {
    return exec::OperatorPtr(std::make_unique<exec::FilterOperator>(
        ScanAll(probe),
        exec::MakeBinary(exec::BinaryOp::kNe,
                         exec::MakeBinary(exec::BinaryOp::kMod,
                                          exec::MakeColumnRef(3, DataType::kInt64),
                                          exec::MakeConstant(I(3))),
                         exec::MakeConstant(I(0)))));
  };
  std::vector<std::pair<std::string, storage::TablePtr>> builds;
  builds.emplace_back("interleaved",
                      MakeGroupJoinBuildFrom(RunKeys({40, 40, 40, 40, 3, 1}, true), 52));
  builds.emplace_back("grouped runs",
                      MakeGroupJoinBuildFrom(RunKeys({1023, 1024, 1025, 1100}, false), 53));
  builds.emplace_back("regrouped runs",
                      MakeGroupJoinBuildFrom(RunKeys({1023, 1024, 1025, 1100}, true), 54));
  builds.emplace_back("row chains", MakeGroupJoinBuildFrom(RunKeys({3, 3, 2, 1}, true), 57));
  for (const auto& [name, build] : builds) {
    for (bool selected : {false, true}) {
      SCOPED_TRACE(name + (selected ? ", selected probe" : ""));
      GroupJoinPair pair = MakeGroupJoinPair(
          selected ? std::function<exec::OperatorPtr()>(filtered)
                   : std::function<exec::OperatorPtr()>([&] { return ScanAll(probe); }),
          [&] { return ScanAll(build); });
      const std::vector<DataChunk> expected = RunChunks(pair.unfused.get());
      ASSERT_FALSE(expected.empty());
      ExpectSameChunks(RunChunks(pair.fused.get()), expected);
    }
  }
}

TEST(JoinRunTest, GroupJoinMorselBuildRepetitionDiffersPerMorsel) {
  // Rows [0, 200) of the build repeat four keys round-robin (regrouped),
  // rows [200, 204) hold each key once and rows [204, 400) one run of 49
  // rows per key (kept as drained); a one-row morsel keeps row chains.
  std::vector<JoinKey> keys = RunKeys({50, 50, 50, 50}, true);
  for (const JoinKey& key : RunKeys({1, 1, 1, 1}, false)) keys.push_back(key);
  for (const JoinKey& key : RunKeys({49, 49, 49, 49}, false)) keys.push_back(key);
  auto build = MakeGroupJoinBuildFrom(keys, 55);
  auto probe = MakeGroupJoinProbe(900, 56);
  auto morsel_build = [&] {
    return exec::OperatorPtr(std::make_unique<exec::TableScanOperator>(
        exec::TableScanOperator::MorselBound{}, build, std::vector<int>{0, 1, 2, 3, 4, 5},
        std::vector<exec::ScanPredicate>{}));
  };
  GroupJoinPair pair = MakeGroupJoinPair([&] { return ScanAll(probe); }, morsel_build);
  ExecContext fused_ctx;
  ExecContext unfused_ctx;
  ASSERT_OK(pair.fused->Open(&fused_ctx));
  ASSERT_OK(pair.unfused->Open(&unfused_ctx));
  for (auto [begin, end] : {std::pair<int64_t, int64_t>{0, 200}, {200, 400}, {150, 260},
                            {203, 204}, {0, 400}}) {
    SCOPED_TRACE("morsel " + std::to_string(begin) + ".." + std::to_string(end));
    for (ExecContext* ctx : {&fused_ctx, &unfused_ctx}) {
      ctx->morsel_begin = begin;
      ctx->morsel_end = end;
    }
    ASSERT_OK(pair.fused->Rewind(&fused_ctx));
    ASSERT_OK(pair.unfused->Rewind(&unfused_ctx));
    ExpectSameChunks(DrainChunks(pair.fused.get(), &fused_ctx),
                     DrainChunks(pair.unfused.get(), &unfused_ctx));
  }
  pair.fused->Close(&fused_ctx);
  pair.unfused->Close(&unfused_ctx);
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
