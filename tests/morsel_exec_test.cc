// Tests of the morsel-driven pipeline executor (exec/morsel.h): morsel
// generation, the DataChunk buffer-reuse hot path, the engine's worker-pool
// options, and — the core acceptance property — that morsel-driven parallel
// execution is row-for-row identical to serial execution across scans,
// filters, joins, aggregation, sorting and the native ModelJoin.

#include "exec/morsel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "benchlib/workloads.h"
#include "common/config.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "exec/profile.h"
#include "exec/vector.h"
#include "mltosql/mltosql.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "server/server.h"
#include "sql/physical_planner.h"
#include "sql/plan_validate.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using testutil::I;

storage::TablePtr MakeIdTable(const std::string& name, int64_t rows,
                              int64_t repeats_per_id) {
  auto table = std::make_shared<storage::Table>(
      name, std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                        {"x", exec::DataType::kFloat}});
  for (int64_t r = 0; r < rows; ++r) {
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(r / repeats_per_id),
                                  storage::Value::Float(static_cast<float>(r))})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  return table;
}

TEST(MakeMorselsTest, CoversTableContiguously) {
  auto table = MakeIdTable("t", 10000, 1);
  auto morsels = exec::MakeMorsels(*table, 1024);
  ASSERT_FALSE(morsels.empty());
  EXPECT_EQ(morsels.front().begin, 0);
  EXPECT_EQ(morsels.back().end, 10000);
  for (size_t i = 1; i < morsels.size(); ++i) {
    EXPECT_EQ(morsels[i].begin, morsels[i - 1].end) << "gap before morsel " << i;
  }
  // Unique ids: no boundary extension, so every morsel except the last is
  // exactly the requested size.
  for (size_t i = 0; i + 1 < morsels.size(); ++i) {
    EXPECT_EQ(morsels[i].end - morsels[i].begin, 1024);
  }
}

TEST(MakeMorselsTest, AlignsBoundariesOnRepeatedIds) {
  // 7 rows per id and a morsel size that never divides evenly: every raw
  // boundary lands mid-group and must be pushed to the next id change.
  auto table = MakeIdTable("t", 7 * 300, 7);
  auto morsels = exec::MakeMorsels(*table, 10);
  ASSERT_GT(morsels.size(), 1u);
  const storage::Column& id = table->column(0);
  for (size_t i = 0; i + 1 < morsels.size(); ++i) {
    int64_t b = morsels[i].end;
    EXPECT_NE(id.GetInt64(b), id.GetInt64(b - 1))
        << "morsel " << i << " splits id group at row " << b;
  }
  EXPECT_EQ(morsels.back().end, table->num_rows());
}

TEST(MakeMorselsTest, NonPositiveSizeFallsBackToDefault) {
  auto table = MakeIdTable("t", kDefaultMorselRows + 5, 1);
  auto morsels = exec::MakeMorsels(*table, 0);
  EXPECT_EQ(static_cast<int64_t>(morsels.size()), 2);
}

TEST(DataChunkResetTest, ReusesColumnBuffersAcrossResets) {
  std::vector<exec::DataType> types{exec::DataType::kInt64,
                                    exec::DataType::kFloat};
  exec::DataChunk chunk;
  chunk.Reset(types);
  chunk.SetCardinality(512);
  const int64_t* ints_before = chunk.column(0).ints();
  const float* floats_before = chunk.column(1).floats();

  chunk.Reset(types);
  EXPECT_EQ(chunk.size, 0);
  EXPECT_EQ(chunk.column(0).size(), 0);
  chunk.SetCardinality(512);
  // Same capacity request after a same-schema Reset: the buffers must be the
  // ones from the previous iteration, not fresh allocations.
  EXPECT_EQ(chunk.column(0).ints(), ints_before);
  EXPECT_EQ(chunk.column(1).floats(), floats_before);

  // Schema change falls back to a rebuild.
  std::vector<exec::DataType> other{exec::DataType::kFloat};
  chunk.Reset(other);
  ASSERT_EQ(chunk.num_columns(), 1);
  EXPECT_EQ(chunk.column(0).type(), exec::DataType::kFloat);
}

TEST(EngineWorkerPoolTest, HonorsWorkerThreadOptionChanges) {
  sql::QueryEngine::Options options;
  options.worker_threads = 3;
  sql::QueryEngine engine(options);
  EXPECT_EQ(engine.EffectiveWorkers(), 3);
  EXPECT_EQ(engine.SharedPool(engine.EffectiveWorkers())->num_threads(), 3);

  options.worker_threads = 2;
  engine.set_options(options);
  EXPECT_EQ(engine.SharedPool(engine.EffectiveWorkers())->num_threads(), 2);

  options.worker_threads = 0;
  engine.set_options(options);
  EXPECT_GE(HardwareConcurrency(), 1);
  EXPECT_EQ(engine.EffectiveWorkers(), HardwareConcurrency());
  EXPECT_EQ(engine.SharedPool(engine.EffectiveWorkers())->num_threads(),
            HardwareConcurrency());
}

/// `worker_threads = 1` is the serial mode: a parallel-safe plan runs as one
/// instance on the calling thread, never on more workers than configured.
TEST(EngineWorkerPoolTest, SingleWorkerRunsSerially) {
  sql::QueryEngine::Options options;
  options.worker_threads = 1;
  options.morsel_rows = 256;
  sql::QueryEngine engine(options);
  auto fact = MakeIdTable("fact", 5000, 1);
  ASSERT_OK(engine.catalog()->CreateTable(fact));

  ASSERT_OK_AND_ASSIGN(auto plan, engine.PlanQuery("SELECT f.id, f.x FROM fact f"));
  exec::QueryProfile profile;
  ASSERT_OK_AND_ASSIGN(auto result, engine.ExecutePlan(*plan, &profile));
  EXPECT_EQ(result.num_rows, 5000);
  EXPECT_EQ(profile.num_workers(), 1);
}

/// Asserts two results are row-for-row identical: same schema, same row
/// count, bit-equal values at every (row, column).
void ExpectRowIdentical(const exec::QueryResult& actual,
                        const exec::QueryResult& expected) {
  ASSERT_EQ(actual.names, expected.names);
  ASSERT_EQ(actual.num_rows, expected.num_rows);
  for (int64_t r = 0; r < expected.num_rows; ++r) {
    for (size_t c = 0; c < expected.types.size(); ++c) {
      exec::Value va = actual.GetValue(r, static_cast<int>(c));
      exec::Value ve = expected.GetValue(r, static_cast<int>(c));
      ASSERT_EQ(va.type, ve.type) << "row " << r << " col " << c;
      switch (ve.type) {
        case exec::DataType::kBool:
          ASSERT_EQ(va.b, ve.b) << "row " << r << " col " << c;
          break;
        case exec::DataType::kInt64:
          ASSERT_EQ(va.i, ve.i) << "row " << r << " col " << c;
          break;
        case exec::DataType::kFloat:
          ASSERT_EQ(va.f, ve.f) << "row " << r << " col " << c;
          break;
      }
    }
  }
}

storage::TablePtr DeterminismFactTable(int64_t rows) {
  auto table = std::make_shared<storage::Table>(
      "fact", std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                          {"k", exec::DataType::kInt64},
                                          {"a", exec::DataType::kFloat},
                                          {"b", exec::DataType::kFloat}});
  Random rng(7);
  for (int64_t i = 0; i < rows; ++i) {
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Int64(static_cast<int64_t>(
                                      rng.NextUint64(5))),
                                  storage::Value::Float(rng.NextFloat(-10, 10)),
                                  storage::Value::Float(rng.NextFloat(-10, 10))})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  return table;
}

class MorselDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fact_ = DeterminismFactTable(20000);
    dim_ = testutil::MakeTable("dim",
                               {{"k", exec::DataType::kInt64},
                                {"v", exec::DataType::kInt64}},
                               {{I(0), I(100)},
                                {I(1), I(101)},
                                {I(2), I(102)},
                                {I(3), I(103)},
                                {I(4), I(104)}});

    sql::QueryEngine::Options serial;
    serial.worker_threads = 1;
    serial_ = std::make_unique<sql::QueryEngine>(serial);

    // Deliberately small morsels (many per worker) and more workers than the
    // query strictly needs: maximises interleaving, so ordering bugs surface.
    sql::QueryEngine::Options morsel;
    morsel.worker_threads = 5;
    morsel.morsel_rows = 64;
    morsel_ = std::make_unique<sql::QueryEngine>(morsel);

    for (sql::QueryEngine* engine : {serial_.get(), morsel_.get()}) {
      ASSERT_OK(engine->catalog()->CreateTable(fact_));
      ASSERT_OK(engine->catalog()->CreateTable(dim_));
    }
  }

  void ExpectDeterministic(const std::string& query) {
    SCOPED_TRACE(query);
    ASSERT_OK_AND_ASSIGN(auto serial_result, serial_->ExecuteQuery(query));
    ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
    ExpectRowIdentical(morsel_result, serial_result);
  }

  storage::TablePtr fact_;
  storage::TablePtr dim_;
  std::unique_ptr<sql::QueryEngine> serial_;
  std::unique_ptr<sql::QueryEngine> morsel_;
};

TEST_F(MorselDeterminismTest, ScanFilterProject) {
  ExpectDeterministic(
      "SELECT f.id, f.a + f.b AS e FROM fact f WHERE f.a >= 0.0");
}

TEST_F(MorselDeterminismTest, StreamingAggregationById) {
  ExpectDeterministic(
      "SELECT f.id AS g, SUM(f.a) AS s, COUNT(*) AS c, MIN(f.b) AS m "
      "FROM fact f GROUP BY f.id");
}

TEST_F(MorselDeterminismTest, HashJoinAgainstDimension) {
  ExpectDeterministic(
      "SELECT f.id, d.v, f.a FROM fact f, dim d WHERE f.k = d.k");
}

TEST_F(MorselDeterminismTest, SortOnPartitionColumn) {
  ExpectDeterministic(
      "SELECT f.id, f.a FROM fact f WHERE f.b >= 0.0 ORDER BY f.id");
}

TEST_F(MorselDeterminismTest, JoinThenAggregation) {
  ExpectDeterministic(
      "SELECT f.id AS g, SUM(f.a + f.b) AS s FROM fact f, dim d "
      "WHERE f.k = d.k AND f.a >= -5.0 GROUP BY f.id");
}

/// A selection-heavy plan (filter → selection vectors over scan views,
/// project evaluated through them) must be bit-identical whether executed
/// serially or morsel-wise with aggressive interleaving.
TEST_F(MorselDeterminismTest, SelectionProducingFilterMatchesSerial) {
  const std::string query =
      "SELECT f.id, f.a * 2.0 AS a2, f.b FROM fact f "
      "WHERE f.k = 2 AND f.a >= 0.0";
  ASSERT_OK_AND_ASSIGN(auto serial_result, serial_->ExecuteQuery(query));
  ASSERT_GT(serial_result.num_rows, 0);
  ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
  ExpectRowIdentical(morsel_result, serial_result);
}

/// Skewed workload: virtually all filter survivors sit in one contiguous 10%
/// of the table, so a static split into one range per thread would give one
/// thread almost all the post-filter work. The morsel path must still
/// produce serial row order.
TEST(MorselSkewTest, SkewedFilterRowIdenticalToSerial) {
  const int64_t kRows = 50000;
  auto table = std::make_shared<storage::Table>(
      "fact", std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                          {"marker", exec::DataType::kFloat},
                                          {"x", exec::DataType::kFloat}});
  Random rng(13);
  const int64_t hot_begin = kRows * 8 / 10;
  const int64_t hot_end = hot_begin + kRows / 10;
  for (int64_t i = 0; i < kRows; ++i) {
    float marker = (i >= hot_begin && i < hot_end) ? 1.0f : 0.0f;
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Float(marker),
                                  storage::Value::Float(rng.NextFloat(-1, 1))})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});

  sql::QueryEngine::Options serial;
  serial.worker_threads = 1;
  sql::QueryEngine serial_engine(serial);
  ASSERT_OK(serial_engine.catalog()->CreateTable(table));

  sql::QueryEngine::Options morsel;
  morsel.worker_threads = 8;
  morsel.morsel_rows = 512;
  sql::QueryEngine morsel_engine(morsel);
  ASSERT_OK(morsel_engine.catalog()->CreateTable(table));

  const std::string query =
      "SELECT f.id, f.x * 2.0 AS y FROM fact f WHERE f.marker >= 0.5";
  ASSERT_OK_AND_ASSIGN(auto serial_result, serial_engine.ExecuteQuery(query));
  ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_engine.ExecuteQuery(query));
  ASSERT_EQ(serial_result.num_rows, kRows / 10);
  ExpectRowIdentical(morsel_result, serial_result);
}

class ModelJoinMorselTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sql::QueryEngine::Options serial;
    serial.worker_threads = 1;
    serial_ = std::make_unique<sql::QueryEngine>(serial);
    modeljoin::RegisterNativeModelJoin(serial_.get());

    sql::QueryEngine::Options morsel;
    morsel.worker_threads = 4;
    morsel.morsel_rows = 256;
    morsel_ = std::make_unique<sql::QueryEngine>(morsel);
    modeljoin::RegisterNativeModelJoin(morsel_.get());
  }

  void Deploy(nn::Model* model, const std::string& registered_name) {
    for (sql::QueryEngine* engine : {serial_.get(), morsel_.get()}) {
      mltosql::MlToSql framework(model, "m");
      ASSERT_OK(framework.Deploy(engine));
      engine->models()->Register(nn::MetaOf(*model, registered_name));
    }
  }

  std::unique_ptr<sql::QueryEngine> serial_;
  std::unique_ptr<sql::QueryEngine> morsel_;
};

TEST_F(ModelJoinMorselTest, InferenceRowIdenticalToSerial) {
  auto fact = benchlib::MakeIrisTable("fact", 4000);
  ASSERT_OK(serial_->catalog()->CreateTable(fact));
  ASSERT_OK(morsel_->catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 21));
  Deploy(&model, "dense16");

  const std::string query =
      "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'dense16' "
      "DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
      "petal_width)";
  ASSERT_OK_AND_ASSIGN(auto serial_result, serial_->ExecuteQuery(query));
  ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
  ASSERT_EQ(serial_result.num_rows, 4000);
  ExpectRowIdentical(morsel_result, serial_result);
}

TEST_F(ModelJoinMorselTest, InferenceWithAggregationRowIdenticalToSerial) {
  auto fact = benchlib::MakeIrisTable("fact", 3000);
  ASSERT_OK(serial_->catalog()->CreateTable(fact));
  ASSERT_OK(morsel_->catalog()->CreateTable(fact));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 5));
  Deploy(&model, "dense8");

  const std::string query =
      "SELECT id, AVG(prediction) AS p, COUNT(*) AS n FROM fact "
      "MODEL JOIN m USING MODEL 'dense8' DEVICE 'cpu' "
      "PREDICT (sepal_length, sepal_width, petal_length, petal_width) "
      "GROUP BY id";
  ASSERT_OK_AND_ASSIGN(auto serial_result, serial_->ExecuteQuery(query));
  ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
  ASSERT_EQ(serial_result.num_rows, 3000);
  ExpectRowIdentical(morsel_result, serial_result);
}

// ---------------------------------------------------------------------------
// Morsel pruning: the planner schedules only the morsels the pushed
// predicates can reach. There is no switch to turn pruning off, so the
// references are the serial run (no morsels at all), a row set computed
// here from the table data, and a brute-force zone-map check per block.
// ---------------------------------------------------------------------------

constexpr int64_t kPruneRows = 100'000;
constexpr int64_t kPruneMorselRows = 8192;  // two blocks per morsel

/// Sorted unique ids; `x` is unsorted, in [-1, 1) below id 40 000 and in
/// [-0.5, 0.5) from there on, so `x > 0.6` reaches only the first blocks.
storage::TablePtr PruningTable() {
  auto table = std::make_shared<storage::Table>(
      "fact", std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                          {"x", exec::DataType::kFloat}});
  Random rng(29);
  for (int64_t i = 0; i < kPruneRows; ++i) {
    const float scale = i < 40'000 ? 1.0f : 0.5f;
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Float(scale * rng.NextFloat(-1, 1))})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  return table;
}

/// The zone-map rule recomputed from the raw rows: true when no row of
/// [begin, end) can satisfy `p` by the block's min and max.
bool BlockExcludes(const storage::Table& table, const exec::ScanPredicate& p,
                   int64_t begin, int64_t end) {
  double lo = table.column(p.column).GetValue(begin).AsDouble();
  double hi = lo;
  for (int64_t r = begin + 1; r < end; ++r) {
    const double v = table.column(p.column).GetValue(r).AsDouble();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double v = p.value.AsDouble();
  switch (p.op) {
    case exec::BinaryOp::kEq:
      return !(lo <= v && v <= hi);
    case exec::BinaryOp::kLt:
      return !(lo < v);
    case exec::BinaryOp::kLe:
      return !(lo <= v);
    case exec::BinaryOp::kGt:
      return !(hi > v);
    case exec::BinaryOp::kGe:
      return !(hi >= v);
    case exec::BinaryOp::kNe:
      return lo == v && hi == v;
    default:
      return false;
  }
}

/// The pushed predicates of every scan of `table` in `plan`.
void CollectScans(const sql::LogicalOp& plan, const storage::Table* table,
                  std::vector<std::vector<exec::ScanPredicate>>* scans) {
  if (plan.kind == sql::LogicalKind::kScan && plan.table.get() == table) {
    scans->push_back(plan.pushed);
  }
  for (const auto& child : plan.children) CollectScans(*child, table, scans);
}

/// MakeMorsels minus the morsels whose every block the brute-force check
/// excludes for every scan of the table.
std::vector<storage::PartitionRange> ReachableMorsels(
    const storage::Table& table, const std::vector<std::vector<exec::ScanPredicate>>& scans) {
  std::vector<storage::PartitionRange> reachable;
  const int64_t block_rows = table.rows_per_block();
  for (const storage::PartitionRange& m : exec::MakeMorsels(table, kPruneMorselRows)) {
    bool reached = false;
    for (const auto& predicates : scans) {
      for (int64_t b = m.begin / block_rows; b * block_rows < m.end; ++b) {
        const int64_t end = std::min((b + 1) * block_rows, table.num_rows());
        bool excluded = false;
        for (const exec::ScanPredicate& p : predicates) {
          excluded = excluded || BlockExcludes(table, p, b * block_rows, end);
        }
        reached = reached || !excluded;
      }
    }
    if (reached) reachable.push_back(m);
  }
  return reachable;
}

class MorselPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fact_ = PruningTable();
    sql::QueryEngine::Options serial;
    serial.worker_threads = 1;
    serial_ = std::make_unique<sql::QueryEngine>(serial);
    sql::QueryEngine::Options parallel;
    parallel.worker_threads = 4;
    parallel.morsel_rows = kPruneMorselRows;
    parallel_ = std::make_unique<sql::QueryEngine>(parallel);
    server::QueryServer::Options served;
    served.worker_threads = 4;
    served.engine.morsel_rows = kPruneMorselRows;
    server_ = std::make_unique<server::QueryServer>(served);
    for (storage::Catalog* catalog :
         {serial_->catalog(), parallel_->catalog(), server_->catalog()}) {
      ASSERT_OK(catalog->CreateTable(fact_));
    }
  }

  static int64_t Pruned() {
    return metrics::Registry::Global().counter("exec.morsels_pruned")->value();
  }

  /// Runs `query` serially, on the engine at 4 workers and through a
  /// Session; the parallel results must equal the serial one bit for bit
  /// and in order, the serial one must hold exactly `ids` (with the
  /// table's x), and both parallel paths must prune exactly the morsels
  /// the brute-force check excludes. Returns that pruned count.
  int64_t Check(const std::string& query, const std::vector<int64_t>& ids) {
    SCOPED_TRACE(query);
    auto plan = parallel_->PlanQuery(query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return -1;
    std::vector<std::vector<exec::ScanPredicate>> scans;
    CollectScans(**plan, fact_.get(), &scans);
    const bool any_bare = std::any_of(scans.begin(), scans.end(),
                                      [](const auto& p) { return p.empty(); });
    const std::vector<storage::PartitionRange> all =
        exec::MakeMorsels(*fact_, kPruneMorselRows);
    const std::vector<storage::PartitionRange> want =
        any_bare ? all : ReachableMorsels(*fact_, scans);
    const auto want_pruned = static_cast<int64_t>(all.size() - want.size());

    // The planner method itself.
    auto prep = parallel_->PreparePhysical(**plan, parallel_->options(), 4, nullptr,
                                           nullptr);
    EXPECT_TRUE(prep.ok()) << prep.status().ToString();
    if (!prep.ok()) return -1;
    EXPECT_TRUE(prep->use_morsel);
    const std::vector<storage::PartitionRange> got =
        prep->planner->Morsels(kPruneMorselRows);
    EXPECT_EQ(got.size(), want.size());
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].begin, want[i].begin) << "morsel " << i;
      EXPECT_EQ(got[i].end, want[i].end) << "morsel " << i;
    }

    auto serial = serial_->ExecuteQuery(query);
    EXPECT_TRUE(serial.ok()) << serial.status().ToString();
    if (!serial.ok()) return -1;
    int64_t before = Pruned();
    auto engine = parallel_->ExecuteQuery(query);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(Pruned() - before, want_pruned) << "engine path";
    before = Pruned();
    auto session = server_->CreateSession()->ExecuteQuery(query);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(Pruned() - before, want_pruned) << "session path";
    if (!engine.ok() || !session.ok()) return -1;
    ExpectRowIdentical(*engine, *serial);
    ExpectRowIdentical(*session, *serial);
    EXPECT_EQ(engine->types, serial->types);
    EXPECT_EQ(session->types, serial->types);

    // The hand-computed row set: ids in order, each with the table's x.
    EXPECT_EQ(serial->names, (std::vector<std::string>{"id", "x"}));
    EXPECT_EQ(serial->num_rows, static_cast<int64_t>(ids.size()));
    for (int64_t r = 0; r < std::min<int64_t>(serial->num_rows, ids.size()); ++r) {
      const int64_t id = ids[static_cast<size_t>(r)];
      EXPECT_EQ(serial->GetValue(r, 0).i, id) << "row " << r;
      const float want_x = fact_->column(1).GetValue(id).f;
      const float got_x = serial->GetValue(r, 1).f;
      EXPECT_EQ(0, std::memcmp(&want_x, &got_x, sizeof(float))) << "row " << r;
    }
    return want_pruned;
  }

  static std::vector<int64_t> Range(int64_t lo, int64_t hi) {
    std::vector<int64_t> ids;
    for (int64_t i = lo; i < hi; ++i) ids.push_back(i);
    return ids;
  }

  int64_t NumMorsels() const {
    return static_cast<int64_t>(exec::MakeMorsels(*fact_, kPruneMorselRows).size());
  }

  storage::TablePtr fact_;
  std::unique_ptr<sql::QueryEngine> serial_;
  std::unique_ptr<sql::QueryEngine> parallel_;
  std::unique_ptr<server::QueryServer> server_;
};

TEST_F(MorselPruningTest, PointRangeSchedulesOneMorsel) {
  EXPECT_EQ(Check("SELECT id, x FROM fact WHERE id >= 50000 AND id < 50256",
                   Range(50000, 50256)),
            NumMorsels() - 1);
}

TEST_F(MorselPruningTest, RangeAcrossAMorselBoundaryKeepsBoth) {
  EXPECT_EQ(Check("SELECT id, x FROM fact WHERE id >= 8000 AND id < 8400",
                  Range(8000, 8400)),
            NumMorsels() - 2);
}

TEST_F(MorselPruningTest, EmptyRangePrunesEveryMorselAndKeepsTheSchema) {
  EXPECT_EQ(Check("SELECT id, x FROM fact WHERE id > 1000000", {}), NumMorsels());
}

TEST_F(MorselPruningTest, WholeTablePrunesNothing) {
  EXPECT_EQ(Check("SELECT id, x FROM fact", Range(0, kPruneRows)), 0);
}

TEST_F(MorselPruningTest, UnsortedFloatPredicatePrunesByZoneMap) {
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < kPruneRows; ++i) {
    if (fact_->column(1).GetValue(i).f > 0.6f) ids.push_back(i);
  }
  ASSERT_FALSE(ids.empty());
  const int64_t pruned = Check("SELECT id, x FROM fact WHERE x > 0.6", ids);
  // Every morsel from id 40 000 on is out of reach; the earlier ones not.
  EXPECT_EQ(pruned, NumMorsels() - (40'000 + kPruneMorselRows - 1) / kPruneMorselRows);
}

TEST_F(MorselPruningTest, SelfJoinWithOneFilteredBranchPrunesNothing) {
  const std::string query =
      "SELECT a.id, b.x FROM fact a, fact b WHERE a.id = b.id AND a.id < 5000";
  ASSERT_OK_AND_ASSIGN(auto plan, parallel_->PlanQuery(query));
  std::vector<std::vector<exec::ScanPredicate>> scans;
  CollectScans(*plan, fact_.get(), &scans);
  ASSERT_EQ(scans.size(), 2u);
  ASSERT_NE(scans[0].empty(), scans[1].empty()) << "one branch filtered";
  EXPECT_EQ(Check(query, Range(0, 5000)), 0);
}

/// A NaN cell must not hide its block: NaN is left out of the zone map's
/// bounds (it compares false with everything), and `<>` never prunes a
/// block holding NaN, which satisfies it. Serial scan pruning and the
/// planner's morsel pruning read the same stats.
TEST(ZoneMapNanTest, NanCellsDoNotHideTheirBlock) {
  auto table = std::make_shared<storage::Table>(
      "fact", std::vector<storage::Field>{{"id", exec::DataType::kInt64},
                                          {"x", exec::DataType::kFloat}});
  const int64_t rows = 4 * kRowsPerBlock;
  for (int64_t i = 0; i < rows; ++i) {
    // Every block opens with a NaN; the last block is NaN throughout.
    const bool nan = i % kRowsPerBlock == 0 || i >= 3 * kRowsPerBlock;
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Float(nan ? NAN : 1.0f)})
                     .ok());
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    sql::QueryEngine::Options options;
    options.worker_threads = workers;
    options.morsel_rows = kRowsPerBlock;
    sql::QueryEngine engine(options);
    ASSERT_OK(engine.catalog()->CreateTable(table));
    ASSERT_OK_AND_ASSIGN(auto above, engine.ExecuteQuery(
                                         "SELECT id FROM fact WHERE x > 0.5"));
    EXPECT_EQ(above.num_rows, 3 * (kRowsPerBlock - 1));
    ASSERT_OK_AND_ASSIGN(auto other, engine.ExecuteQuery(
                                         "SELECT id FROM fact WHERE x <> 1.0"));
    EXPECT_EQ(other.num_rows, 3 + kRowsPerBlock);
  }
}

TEST(MorselSafetyValidationTest, AcceptsParallelSafeRejectsSerialOnly) {
  sql::QueryEngine engine;
  auto fact = DeterminismFactTable(100);
  ASSERT_OK(engine.catalog()->CreateTable(fact));

  sql::Optimizer optimizer(engine.options().optimizer);
  const std::string safe_query = "SELECT f.id, f.a FROM fact f";
  ASSERT_OK_AND_ASSIGN(auto safe_plan, engine.PlanQuery(safe_query));
  sql::PlanAnalysis safe_analysis = optimizer.Analyze(*safe_plan);
  ASSERT_TRUE(safe_analysis.parallel_safe);
  ASSERT_OK(sql::ValidateMorselSafety(*safe_plan, safe_analysis));

  // Global LIMIT does not decompose over morsels; the analysis marks it
  // serial-only and the validator must refuse it.
  const std::string limit_query = "SELECT f.id FROM fact f LIMIT 5";
  ASSERT_OK_AND_ASSIGN(auto limit_plan, engine.PlanQuery(limit_query));
  sql::PlanAnalysis limit_analysis = optimizer.Analyze(*limit_plan);
  ASSERT_FALSE(limit_analysis.parallel_safe);
  EXPECT_FALSE(sql::ValidateMorselSafety(*limit_plan, limit_analysis).ok());
}

// ---------------------------------------------------------------------------
// [Project(column refs)] [Filter]* Scan chains built as one TableScanOperator

/// Queries that exercise the chain shapes: pushed predicates only, residual
/// float/int conditions, multi-conjunct filters, pure-column projects, and
/// expression projects (which keep the discrete ProjectOperator over a scan
/// that absorbed the filter below them).
const char* const kFusionQueries[] = {
    "SELECT f.id, f.a, f.b FROM fact f WHERE f.a >= 0.0",
    "SELECT f.id FROM fact f WHERE f.k = 2 AND f.a >= 0.0",
    "SELECT f.b, f.id FROM fact f WHERE f.a > 0.25 AND f.b < 3.5",
    "SELECT f.id, f.a * 2.0 AS a2 FROM fact f WHERE f.k >= 3",
    "SELECT f.id, f.a FROM fact f",
    "SELECT f.id AS g, SUM(f.a) AS s FROM fact f WHERE f.b >= -5.0 GROUP BY f.id",
};

TEST_F(MorselDeterminismTest, ScanChainsRowIdenticalToSerial) {
  for (const char* query : kFusionQueries) ExpectDeterministic(query);
}

/// Division and modulo can fail per row, and the scan evaluates absorbed
/// conditions over every window row. So such a condition must stay in a
/// discrete Filter above the scan, which only sees the rows its pushed
/// `k <> 0` lets through; absorbed, the query fails with division by zero.
TEST_F(MorselDeterminismTest, DivisionFilterStaysAboveTheScan) {
  const storage::Column& k = fact_->column(1);
  for (const std::string op : {"/", "%"}) {
    SCOPED_TRACE(op);
    const std::string cond = op == "/" ? " > 2" : " > 0";
    const std::string query =
        "SELECT t.id FROM fact t WHERE t.k <> 0 AND 10 " + op + " t.k" + cond;
    ASSERT_OK_AND_ASSIGN(std::string plan, serial_->Explain(query));
    const size_t filter = plan.find("Filter ((10 " + op + " k)" + cond + ")");
    const size_t scan = plan.find("Scan fact");
    ASSERT_NE(filter, std::string::npos) << plan;
    ASSERT_NE(scan, std::string::npos) << plan;
    EXPECT_LT(filter, scan) << plan;
    EXPECT_NE(plan.find("{col1 <> 0}", scan), std::string::npos) << plan;

    int64_t expected = 0;
    for (int64_t r = 0; r < fact_->num_rows(); ++r) {
      const int64_t v = k.GetInt64(r);
      if (v != 0 && (op == "/" ? 10 / v > 2 : 10 % v > 0)) ++expected;
    }
    ASSERT_GT(expected, 0);
    ASSERT_OK_AND_ASSIGN(auto serial_result, serial_->ExecuteQuery(query));
    EXPECT_EQ(serial_result.num_rows, expected);
    ASSERT_OK_AND_ASSIGN(auto morsel_result, morsel_->ExecuteQuery(query));
    ExpectRowIdentical(morsel_result, serial_result);
  }
}

/// EXPLAIN ANALYZE profiles the plan that runs: a [Project] [Filter] Scan
/// chain is one scan operator, its profile still has one node per logical
/// node, and the absorbed Filter and Scan nodes report the rows the
/// discrete operators would emit but no time (the chain root's
/// ProfiledOperator times the whole chain).
TEST_F(MorselDeterminismTest, ExplainAnalyzeProfilesTheAbsorbedChain) {
  int64_t k_rows = 0;
  int64_t k_and_a_rows = 0;
  for (int64_t r = 0; r < fact_->num_rows(); ++r) {
    if (fact_->column(1).GetInt64(r) == 0) continue;
    ++k_rows;
    if (fact_->column(2).GetFloat(r) * 2.0f > 0.0f) ++k_and_a_rows;
  }
  struct Case {
    std::string query;
    std::vector<std::string> kinds;  ///< plan nodes, pre-order
    std::vector<int64_t> rows;       ///< hand-computed rows per node
  };
  const Case cases[] = {
      {"SELECT f.id FROM fact f WHERE f.k <> 0 AND f.a * 2.0 > 0.0",
       {"Project", "Filter", "Scan"},
       {k_and_a_rows, k_and_a_rows, k_rows}},
      {"SELECT f.a, f.id FROM fact f", {"Project", "Scan"}, {20000, 20000}},
  };
  for (int workers : {1, 4}) {
    sql::QueryEngine::Options options;
    options.worker_threads = workers;
    options.morsel_rows = 512;
    sql::QueryEngine engine(options);
    ASSERT_OK(engine.catalog()->CreateTable(fact_));
    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message() << c.query << " workers=" << workers);
      ASSERT_OK_AND_ASSIGN(auto plan, engine.PlanQuery(c.query));
      std::vector<std::string> labels;
      std::function<void(const sql::LogicalOp&)> walk = [&](const sql::LogicalOp& op) {
        labels.push_back(op.NodeString());
        for (const auto& child : op.children) walk(*child);
      };
      walk(*plan);
      ASSERT_EQ(labels.size(), c.kinds.size());
      for (size_t i = 0; i < labels.size(); ++i) {
        ASSERT_EQ(labels[i].rfind(c.kinds[i], 0), 0u) << labels[i];
      }

      exec::QueryProfile profile;
      ASSERT_OK_AND_ASSIGN(auto profiled, engine.ExecutePlan(*plan, &profile));
      EXPECT_EQ(profile.num_workers(), workers);
      ASSERT_EQ(profile.num_nodes(), static_cast<int>(labels.size()));
      for (size_t i = 0; i < labels.size(); ++i) {
        const exec::OperatorStats stats = profile.Aggregate(static_cast<int>(i));
        SCOPED_TRACE(labels[i]);
        EXPECT_EQ(profile.node_label(static_cast<int>(i)), labels[i]);
        EXPECT_EQ(stats.rows, c.rows[i]);
        if (i == 0) {
          EXPECT_GT(stats.next_nanos, 0);  // the root times the whole chain
        } else {
          EXPECT_EQ(stats.next_nanos, 0);  // absorbed into the scan
        }
      }

      ASSERT_OK_AND_ASSIGN(auto unprofiled, engine.ExecuteQuery(c.query));
      ExpectRowIdentical(profiled, unprofiled);
    }
  }
}

/// SIMD off at runtime (the scalar ablation) must not change a single bit of
/// a fused, selection-heavy query's output.
TEST_F(MorselDeterminismTest, ScalarAblationBitIdentical) {
  const std::string query =
      "SELECT f.id, f.a * 2.0 AS a2, f.b FROM fact f "
      "WHERE f.k = 2 AND f.a >= 0.0";
  ASSERT_OK_AND_ASSIGN(auto simd_result, serial_->ExecuteQuery(query));
  simd::ScopedEnable off(false);
  ASSERT_OK_AND_ASSIGN(auto scalar_result, serial_->ExecuteQuery(query));
  ExpectRowIdentical(scalar_result, simd_result);
}

}  // namespace
}  // namespace indbml
