// The three benchmark workloads. Each drives the engine only through its
// public entry points (QueryEngine::PlanQuery / ExecutePlan,
// benchlib::RunApproach, Session::Submit / QueryHandle::Wait) and times those
// calls from outside with LayerCall.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "benchlib/approaches.h"
#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "exec/profile.h"
#include "harness.h"
#include "inference/cache.h"
#include "inputs.h"
#include "mltosql/mltosql.h"
#include "modeljoin/model_registry.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "server/server.h"
#include "sql/query_engine.h"

namespace perfbench {
namespace {

using indbml::Random;
using indbml::Result;
using indbml::Status;
using indbml::Stopwatch;
namespace benchlib = indbml::benchlib;
namespace exec = indbml::exec;
namespace nn = indbml::nn;
namespace sql = indbml::sql;
namespace storage = indbml::storage;

/// Independent seed for stream `stream` of a run (splitmix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Prints the first few failures to stderr; the count goes to Phase::failed.
void ReportFailure(const std::string& what) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

/// nn::Model::Predict over rows [begin, end) of `table` for a single-output
/// model, in slices run on `pool` (serially when null).
Result<std::vector<float>> ReferencePredictions(const nn::Model& model,
                                                const storage::Table& table,
                                                const std::vector<std::string>& features,
                                                int64_t begin, int64_t end,
                                                indbml::ThreadPool* pool) {
  const int64_t width = static_cast<int64_t>(features.size());
  if (model.input_width() != width || model.output_dim() != 1) {
    return Status::InvalidArgument("reference needs a single-output model over the features");
  }
  std::vector<const float*> cols;
  for (const std::string& name : features) {
    INDBML_ASSIGN_OR_RETURN(int idx, table.ColumnIndex(name));
    cols.push_back(table.column(idx).float_data());
  }
  constexpr int64_t kSlice = 8192;
  const int64_t n = end - begin;
  const int slices = static_cast<int>((n + kSlice - 1) / kSlice);
  std::vector<float> out(static_cast<size_t>(n));
  std::vector<Status> statuses(static_cast<size_t>(slices));
  auto run = [&](int s) {
    const int64_t lo = begin + s * kSlice;
    const int64_t hi = std::min(end, lo + kSlice);
    nn::Tensor x = nn::Tensor::Matrix(hi - lo, width);
    for (int64_t r = lo; r < hi; ++r) {
      for (int64_t c = 0; c < width; ++c) {
        x.data()[(r - lo) * width + c] = cols[static_cast<size_t>(c)][r];
      }
    }
    auto y = model.Predict(x);
    if (!y.ok()) {
      statuses[static_cast<size_t>(s)] = y.status();
      return;
    }
    std::memcpy(out.data() + (lo - begin), y->data(),
                static_cast<size_t>(hi - lo) * sizeof(float));
  };
  if (pool != nullptr) {
    pool->ParallelFor(slices, run);
  } else {
    for (int s = 0; s < slices; ++s) run(s);
  }
  for (const Status& st : statuses) INDBML_RETURN_NOT_OK(st);
  return out;
}

double AbsSum(const std::vector<float>& values) {
  double sum = 0;
  for (float v : values) sum += std::fabs(static_cast<double>(v));
  return sum;
}

double Sum(const std::vector<float>& values) {
  double sum = 0;
  for (float v : values) sum += static_cast<double>(v);
  return sum;
}

/// Checks every row of an (id, prediction) result: the ids are exactly
/// [lo, hi), each once, and each prediction is within tolerance of
/// ref[id - lo].
bool RowsMatch(const exec::QueryResult& result, int64_t lo, int64_t hi,
               const float* ref) {
  auto id_col = result.ColumnIndex("id");
  auto pred_col = result.ColumnIndex("prediction");
  if (!id_col.ok() || !pred_col.ok() || result.num_rows != hi - lo) return false;
  std::vector<char> seen(static_cast<size_t>(hi - lo), 0);
  for (const exec::DataChunk& chunk : result.chunks) {
    const exec::Vector& ids = chunk.column(*id_col);
    const exec::Vector& preds = chunk.column(*pred_col);
    for (int64_t r = 0; r < ids.size(); ++r) {
      const int64_t id = ids.GetInt64At(r);
      if (id < lo || id >= hi || seen[static_cast<size_t>(id - lo)] != 0) return false;
      seen[static_cast<size_t>(id - lo)] = 1;
      const double want = ref[id - lo];
      if (!WithinTolerance(preds.GetFloatAt(r), want, 1.0 + std::fabs(want))) {
        return false;
      }
    }
  }
  return true;
}

/// PlanQuery then ExecutePlan — QueryEngine::ExecuteQuery split at the
/// layer boundary so each half is timed on its own.
Result<exec::QueryResult> PlanAndExecute(sql::QueryEngine* engine,
                                         const std::string& query, LayerTimes* times) {
  sql::LogicalOpPtr plan;
  {
    LayerCall call("sql.plan", times);
    INDBML_ASSIGN_OR_RETURN(plan, engine->PlanQuery(query));
  }
  LayerCall call("exec.execute", times);
  return engine->ExecutePlan(*plan);
}

/// Runs `query` once with EXPLAIN ANALYZE profiling and adds its exact join
/// and aggregate row counts and join self time to `counts`.
Status ProfileQuery(sql::QueryEngine* engine, const std::string& query,
                    ProfileCounts* counts) {
  INDBML_ASSIGN_OR_RETURN(sql::LogicalOpPtr plan, engine->PlanQuery(query));
  // The physical planner registers profile nodes in this same pre-order.
  struct Node {
    std::string label;
    std::vector<int> children;
  };
  std::vector<Node> nodes;
  std::function<int(const sql::LogicalOp&)> walk = [&](const sql::LogicalOp& op) {
    const int id = static_cast<int>(nodes.size());
    nodes.push_back({op.NodeString(), {}});
    for (const auto& child : op.children) {
      const int child_id = walk(*child);
      nodes[static_cast<size_t>(id)].children.push_back(child_id);
    }
    return id;
  };
  walk(*plan);

  exec::QueryProfile profile;
  INDBML_ASSIGN_OR_RETURN(exec::QueryResult result, engine->ExecutePlan(*plan, &profile));
  (void)result;
  if (profile.num_nodes() != static_cast<int>(nodes.size())) {
    return Status::Internal("profile does not mirror the logical plan");
  }
  auto total_nanos = [&](int node) {
    const exec::OperatorStats s = profile.Aggregate(node);
    return s.open_nanos + s.next_nanos + s.close_nanos + s.rewind_nanos;
  };
  for (int i = 0; i < profile.num_nodes(); ++i) {
    const Node& node = nodes[static_cast<size_t>(i)];
    if (profile.node_label(i) != node.label) {
      return Status::Internal("profile node order differs from the logical plan");
    }
    if (node.label.rfind("HashJoin", 0) == 0 || node.label.rfind("CrossJoin", 0) == 0) {
      int64_t self = total_nanos(i);
      for (int c : node.children) self -= total_nanos(c);
      counts->join_rows += profile.Aggregate(i).rows;
      counts->join_self_nanos += std::max<int64_t>(0, self);
    } else if (node.label.rfind("Aggregate", 0) == 0) {
      for (int c : node.children) counts->aggregate_input_rows += profile.Aggregate(c).rows;
    }
  }
  ++counts->queries;
  return Status::OK();
}

// ---------------------------------------------------------------------------

/// infer_batch: one client on a bare QueryEngine with engine defaults
/// (per-query model build, no batcher, no result cache), rotating three
/// query kinds over 131 072-row unique-tuple fact tables.
class InferBatch final : public Workload {
 public:
  explicit InferBatch(uint64_t seed) : seed_(seed), check_rng_(SubSeed(seed, 9)) {}

  std::vector<std::string> KindNames() const override {
    return {"mj_dense", "capi_dense", "mj_lstm"};
  }
  bool IsModelJoinKind(int kind) const override { return kind != kCapiDense; }
  int64_t RoundQueries() const override { return kCycle; }

  Status SetUp() override {
    engine_ = std::make_unique<sql::QueryEngine>();
    storage::Catalog* catalog = engine_->catalog();
    catalog->CreateOrReplaceTable(
        MakeUniqueFactTable("dense_fact", kRows, 4, "f", SubSeed(seed_, 1)));
    catalog->CreateOrReplaceTable(
        MakeUniqueFactTable("lstm_fact", kRows, 3, "x", SubSeed(seed_, 2)));
    INDBML_ASSIGN_OR_RETURN(dense_, nn::MakeDenseBenchmarkModel(128, 4, SubSeed(seed_, 3)));
    INDBML_ASSIGN_OR_RETURN(lstm_, nn::MakeLstmBenchmarkModel(64, 3, SubSeed(seed_, 4)));
    INDBML_ASSIGN_OR_RETURN(dense_ctx_, benchlib::PrepareApproachContext(
                                            engine_.get(), &dense_, "dense",
                                            "dense_fact", dense_features_));
    INDBML_ASSIGN_OR_RETURN(lstm_ctx_, benchlib::PrepareApproachContext(
                                           engine_.get(), &lstm_, "lstm", "lstm_fact",
                                           lstm_features_));
    mj_dense_sql_ = ModelJoinSql("dense_fact", dense_features_, dense_ctx_.model_table,
                                 "dense");
    mj_lstm_sql_ =
        ModelJoinSql("lstm_fact", lstm_features_, lstm_ctx_.model_table, "lstm");
    // A cold first query runs several times slower than a warm one (pool
    // threads, allocator growth); warm every kind up before timing.
    LayerTimes discard;
    for (int round = 0; round < kWarmupRounds; ++round) {
      for (int kind : {kMjDense, kCapiDense, kMjLstm}) {
        INDBML_ASSIGN_OR_RETURN(Outcome out, Execute(kind, &discard));
        (void)out;
      }
    }
    return Status::OK();
  }

  Status PrepareChecks() override {
    indbml::ThreadPool pool(indbml::HardwareConcurrency());
    INDBML_ASSIGN_OR_RETURN(storage::TablePtr dense, engine_->catalog()->GetTable("dense_fact"));
    INDBML_ASSIGN_OR_RETURN(storage::TablePtr lstm, engine_->catalog()->GetTable("lstm_fact"));
    INDBML_ASSIGN_OR_RETURN(
        ref_dense_, ReferencePredictions(dense_, *dense, dense_features_, 0, kRows, &pool));
    INDBML_ASSIGN_OR_RETURN(
        ref_lstm_, ReferencePredictions(lstm_, *lstm, lstm_features_, 0, kRows, &pool));
    return Status::OK();
  }

  Status Loop(double seconds, Phase* phase) override {
    Stopwatch wall;
    // Whole rotations only, so every phase runs the same query mix.
    for (size_t i = 0;; ++i) {
      if (i % kCycle == 0 && wall.ElapsedSeconds() >= seconds &&
          phase->attempted >= kMinQueries) {
        break;
      }
      RunOne(kRotation[i % kCycle], phase);
    }
    return Status::OK();
  }

  Status Profile(ProfileCounts* counts) override {
    INDBML_RETURN_NOT_OK(ProfileQuery(engine_.get(), mj_dense_sql_, counts));
    return ProfileQuery(engine_.get(), mj_lstm_sql_, counts);
  }

 private:
  enum Kind { kMjDense = 0, kCapiDense = 1, kMjLstm = 2 };
  static constexpr int64_t kRows = 131072;
  static constexpr int kWarmupRounds = 2;
  /// 4:3:1 — each kind takes about a third of the time at the ~75 / 85 /
  /// 290 ms per query this rotation was sized on.
  static constexpr int kCycle = 8;
  static constexpr int kRotation[kCycle] = {kMjDense,   kCapiDense, kMjDense, kCapiDense,
                                            kMjDense,   kCapiDense, kMjDense, kMjLstm};
  /// Every row of a seeded one-in-kRowCheckEvery share of ModelJoin
  /// queries is checked; every query's checksum is.
  static constexpr uint64_t kRowCheckEvery = 4;

  struct Outcome {
    int64_t rows = 0;
    double checksum = 0;
    exec::QueryResult result;  ///< ModelJoin kinds only
  };

  Result<Outcome> Execute(int kind, LayerTimes* times) {
    Outcome out;
    if (kind == kCapiDense) {
      LayerCall call("capi.run_approach", times);
      INDBML_ASSIGN_OR_RETURN(benchlib::RunMeasurement m,
                              benchlib::RunApproach(benchlib::Approach::kCApiCpu, dense_ctx_));
      out.rows = m.rows;
      out.checksum = m.prediction_checksum;
      return out;
    }
    INDBML_ASSIGN_OR_RETURN(
        out.result,
        PlanAndExecute(engine_.get(), kind == kMjDense ? mj_dense_sql_ : mj_lstm_sql_, times));
    out.rows = out.result.num_rows;
    out.checksum = PredictionChecksum(out.result);
    return out;
  }

  void RunOne(int kind, Phase* phase) {
    ++phase->attempted;
    indbml::MemoryTracker::Global().ResetPeak();
    Stopwatch watch;
    Result<Outcome> out = [&] {
      indbml::trace::Span span("bench.query");
      return Execute(kind, &phase->times);
    }();
    const double ms = static_cast<double>(watch.ElapsedNanos()) / 1e6;
    phase->NotePeak();
    const std::string name = KindNames()[static_cast<size_t>(kind)];
    if (!out.ok()) {
      ++phase->failed;
      ReportFailure(name + ": " + out.status().ToString());
      return;
    }
    if (!Correct(kind, *out)) {
      ++phase->failed;
      ReportFailure(name + ": wrong predictions");
      return;
    }
    phase->Complete(kind, ms, out->rows);
  }

  bool Correct(int kind, const Outcome& out) {
    const std::vector<float>& ref = kind == kMjLstm ? ref_lstm_ : ref_dense_;
    if (out.rows != kRows) return false;
    if (!WithinTolerance(out.checksum, Sum(ref), 1.0 + AbsSum(ref))) return false;
    if (kind != kCapiDense && check_rng_.NextUint64(kRowCheckEvery) == 0) {
      return RowsMatch(out.result, 0, kRows, ref.data());
    }
    return true;
  }

  const uint64_t seed_;
  Random check_rng_;
  const std::vector<std::string> dense_features_ = FeatureNames(4, "f");
  const std::vector<std::string> lstm_features_ = FeatureNames(3, "x");
  std::unique_ptr<sql::QueryEngine> engine_;
  nn::Model dense_;
  nn::Model lstm_;
  benchlib::ApproachContext dense_ctx_;
  benchlib::ApproachContext lstm_ctx_;
  std::string mj_dense_sql_;
  std::string mj_lstm_sql_;
  std::vector<float> ref_dense_;
  std::vector<float> ref_lstm_;
};

// ---------------------------------------------------------------------------

/// mltosql_dense: one client on a bare engine running the generated
/// ML-To-SQL query for Dense(32,4) over 4 096 unique tuples — the engine's
/// hash join and streaming aggregate do the work.
class MlToSqlDense final : public Workload {
 public:
  explicit MlToSqlDense(uint64_t seed) : seed_(seed) {}

  std::vector<std::string> KindNames() const override { return {"mltosql_dense"}; }
  bool IsModelJoinKind(int) const override { return false; }
  int64_t RoundQueries() const override { return 1; }

  Status SetUp() override {
    engine_ = std::make_unique<sql::QueryEngine>();
    engine_->catalog()->CreateOrReplaceTable(
        MakeUniqueFactTable("fact", kRows, 4, "f", SubSeed(seed_, 1)));
    INDBML_ASSIGN_OR_RETURN(model_, nn::MakeDenseBenchmarkModel(32, 4, SubSeed(seed_, 3)));
    indbml::mltosql::MlToSql framework(&model_, "m");
    INDBML_RETURN_NOT_OK(framework.Deploy(engine_.get()));
    indbml::mltosql::FactTableInfo info;
    info.table = "fact";
    info.id_column = "id";
    info.input_columns = features_;
    INDBML_ASSIGN_OR_RETURN(sql_, framework.GenerateInferenceSql(info));
    LayerTimes discard;
    INDBML_ASSIGN_OR_RETURN(exec::QueryResult warm,
                            PlanAndExecute(engine_.get(), sql_, &discard));
    (void)warm;
    return Status::OK();
  }

  Status PrepareChecks() override {
    INDBML_ASSIGN_OR_RETURN(storage::TablePtr fact, engine_->catalog()->GetTable("fact"));
    INDBML_ASSIGN_OR_RETURN(std::vector<float> ref, ReferencePredictions(
                                                        model_, *fact, features_, 0,
                                                        kRows, nullptr));
    ref_sum_ = Sum(ref);
    ref_scale_ = 1.0 + AbsSum(ref);
    return Status::OK();
  }

  Status Loop(double seconds, Phase* phase) override {
    Stopwatch wall;
    while (wall.ElapsedSeconds() < seconds || phase->attempted < kMinQueries) {
      ++phase->attempted;
      indbml::MemoryTracker::Global().ResetPeak();
      Stopwatch watch;
      Result<exec::QueryResult> result = [&] {
        indbml::trace::Span span("bench.query");
        return PlanAndExecute(engine_.get(), sql_, &phase->times);
      }();
      const double ms = static_cast<double>(watch.ElapsedNanos()) / 1e6;
      phase->NotePeak();
      if (!result.ok()) {
        ++phase->failed;
        ReportFailure("mltosql_dense: " + result.status().ToString());
        continue;
      }
      if (result->num_rows != kRows ||
          !WithinTolerance(PredictionChecksum(*result), ref_sum_, ref_scale_)) {
        ++phase->failed;
        ReportFailure("mltosql_dense: wrong checksum");
        continue;
      }
      phase->Complete(0, ms, kRows);
    }
    return Status::OK();
  }

  Status Profile(ProfileCounts* counts) override {
    return ProfileQuery(engine_.get(), sql_, counts);
  }

 private:
  static constexpr int64_t kRows = 4096;

  const uint64_t seed_;
  const std::vector<std::string> features_ = FeatureNames(4, "f");
  std::unique_ptr<sql::QueryEngine> engine_;
  nn::Model model_;
  std::string sql_;
  double ref_sum_ = 0;
  double ref_scale_ = 1;
};

// ---------------------------------------------------------------------------

/// serve_zipf: kClients sessions, one per client thread, on a QueryServer
/// with serving defaults. Each query scores one entity (kEntityRows
/// consecutive ids) drawn Zipf(1.0) over kEntities entities.
class ServeZipf final : public Workload {
 public:
  explicit ServeZipf(uint64_t seed)
      : seed_(seed), sampler_(kEntities, kZipfS, SubSeed(seed, 5)) {}

  std::vector<std::string> KindNames() const override { return {"entity"}; }
  bool IsModelJoinKind(int) const override { return true; }
  /// About a fifth of a second of serving per round.
  int64_t RoundQueries() const override { return 1000; }

  Status SetUp() override {
    // Process-wide serving state left by an earlier set-up.
    indbml::modeljoin::SharedModelRegistry::Global().Clear();
    indbml::inference::InferenceCache::Global().Clear();
    server_ = std::make_unique<indbml::server::QueryServer>();
    sql::QueryEngine* engine = server_->engine();
    indbml::modeljoin::RegisterNativeModelJoin(engine);
    engine->catalog()->CreateOrReplaceTable(
        MakeUniqueFactTable("events", kRows, 4, "f", SubSeed(seed_, 1)));
    INDBML_ASSIGN_OR_RETURN(model_, nn::MakeDenseBenchmarkModel(32, 3, SubSeed(seed_, 3)));
    INDBML_RETURN_NOT_OK(indbml::mltosql::MlToSql(&model_, "m").Deploy(engine));
    engine->models()->Register(nn::MetaOf(model_, "dense"));
    // Warm-up: the shared model build, the plan cache and the inference
    // cache fill before timing.
    return RunClients(0, kWarmupQueries, nullptr);
  }

  Status PrepareChecks() override { return Status::OK(); }

  Status Loop(double seconds, Phase* phase) override {
    return RunClients(seconds, -1, phase);
  }

  /// Every kept query is checked row by row: ids exactly its entity, each
  /// prediction bit-identical to a recomputation with the result cache and
  /// batching off, and within tolerance of nn::Model::Predict.
  int64_t FinishChecks() override {
    auto session = server_->CreateSession();
    sql::QueryEngine::Options opts = session->options();
    opts.inference.result_cache = false;
    opts.inference.batch_window_us = 0;
    session->set_options(opts);
    auto table = server_->catalog()->GetTable("events");
    if (!table.ok()) return static_cast<int64_t>(kept_.size());
    int64_t wrong = 0;
    for (const Kept& k : kept_) {
      if (!KeptCorrect(k, session.get(), **table)) {
        ++wrong;
        ReportFailure("serve_zipf: entity rows [" + std::to_string(k.lo) + ", " +
                      std::to_string(k.lo + kEntityRows) + ") mismatch");
      }
    }
    std::printf("serve_zipf: row-checked %zu sampled queries against recomputation "
                "and reference\n",
                kept_.size());
    return wrong;
  }

  Status MeasureOutOfBand(LayerTimes* times) override {
    // The closed loop plans inside Session::Submit, behind the plan cache;
    // time the planner itself on a sample of the same queries.
    Random rng(SubSeed(seed_, 7));
    for (int i = 0; i < kPlanSamples; ++i) {
      const std::string query = EntitySql(sampler_.Next(&rng));
      LayerCall call("sql.plan", times);
      INDBML_ASSIGN_OR_RETURN(sql::LogicalOpPtr plan, server_->engine()->PlanQuery(query));
      (void)plan;
    }
    return Status::OK();
  }

  Status Profile(ProfileCounts* counts) override {
    return ProfileQuery(server_->engine(), EntitySql(sampler_.EntityOfRank(0)), counts);
  }

 private:
  static constexpr int64_t kRows = 4194304;
  static constexpr int64_t kEntityRows = 256;
  static constexpr int64_t kEntities = kRows / kEntityRows;
  static constexpr double kZipfS = 1.0;
  static constexpr int kClients = 4;
  static constexpr int64_t kWarmupQueries = 4096;
  static constexpr int kPlanSamples = 256;
  /// A seeded one-in-kCheckEvery share of queries keeps its rows for the
  /// checks after the timed loop, up to kMaxKept per client and phase.
  static constexpr uint64_t kCheckEvery = 16;
  static constexpr size_t kMaxKept = 64;

  struct Kept {
    int64_t lo = 0;
    std::vector<int64_t> ids;
    std::vector<float> predictions;
  };

  struct Client {
    LayerTimes times;
    std::vector<QueryRecord> done;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Kept> kept;
  };

  std::string EntitySql(int64_t entity) const {
    const int64_t lo = entity * kEntityRows;
    return EntityQuerySql("events", features_, "m", "dense", lo, lo + kEntityRows);
  }

  /// Closed loop of kClients sessions: for `seconds` when `count` < 0,
  /// otherwise `count` queries in total (warm-up, `phase` null).
  Status RunClients(double seconds, int64_t count, Phase* phase) {
    const uint64_t round = rounds_++;
    std::vector<Client> clients(kClients);
    std::atomic<int64_t> remaining{count};
    Stopwatch wall;
    {
      indbml::ThreadPool pool(kClients);
      pool.ParallelFor(kClients, [&](int c) {
        Client& client = clients[static_cast<size_t>(c)];
        Random rng(SubSeed(seed_, 100 + round * kClients + static_cast<uint64_t>(c)));
        Random check_rng(SubSeed(seed_, 10000 + round * kClients + static_cast<uint64_t>(c)));
        auto session = server_->CreateSession();
        while (count >= 0 ? remaining.fetch_sub(1) > 0 : wall.ElapsedSeconds() < seconds) {
          const int64_t entity = sampler_.Next(&rng);
          const std::string query = EntitySql(entity);
          ++client.attempted;
          Stopwatch watch;
          indbml::trace::Span span("bench.query");
          auto handle = [&] {
            LayerCall call("server.submit", &client.times);
            return session->Submit(query);
          }();
          if (!handle.ok()) {
            ++client.failed;
            ReportFailure("serve_zipf submit: " + handle.status().ToString());
            continue;
          }
          auto result = [&] {
            LayerCall call("server.wait", &client.times);
            return (*handle)->Wait();
          }();
          const double ms = static_cast<double>(watch.ElapsedNanos()) / 1e6;
          if (!result.ok() || result->num_rows != kEntityRows) {
            ++client.failed;
            ReportFailure("serve_zipf: " + (result.ok() ? std::string("wrong row count")
                                                        : result.status().ToString()));
            continue;
          }
          client.done.push_back(
              {0, ms, phase != nullptr ? phase->clock.ElapsedSeconds() : 0, kEntityRows});
          if (phase != nullptr && client.kept.size() < kMaxKept &&
              check_rng.NextUint64(kCheckEvery) == 0) {
            client.kept.push_back(Keep(entity * kEntityRows, *result));
          }
        }
      });
    }
    if (phase == nullptr) {
      for (const Client& client : clients) {
        if (client.failed > 0) return Status::ExecutionError("serve_zipf warm-up failed");
      }
      return Status::OK();
    }
    for (Client& client : clients) {
      phase->attempted += client.attempted;
      phase->failed += client.failed;
      phase->times.Merge(client.times);
      phase->queries.insert(phase->queries.end(), client.done.begin(), client.done.end());
      for (Kept& k : client.kept) kept_.push_back(std::move(k));
    }
    std::sort(phase->queries.begin(), phase->queries.end(),
              [](const QueryRecord& a, const QueryRecord& b) { return a.done_s < b.done_s; });
    return Status::OK();
  }

  /// Copies a result's rows out of tracked memory for the deferred check.
  static Kept Keep(int64_t lo, const exec::QueryResult& result) {
    Kept k;
    k.lo = lo;
    auto id_col = result.ColumnIndex("id");
    auto pred_col = result.ColumnIndex("prediction");
    if (!id_col.ok() || !pred_col.ok()) return k;
    for (const exec::DataChunk& chunk : result.chunks) {
      const exec::Vector& ids = chunk.column(*id_col);
      const exec::Vector& preds = chunk.column(*pred_col);
      for (int64_t r = 0; r < ids.size(); ++r) {
        k.ids.push_back(ids.GetInt64At(r));
        k.predictions.push_back(preds.GetFloatAt(r));
      }
    }
    return k;
  }

  bool KeptCorrect(const Kept& k, indbml::server::Session* session,
                   const storage::Table& table) const {
    const int64_t hi = k.lo + kEntityRows;
    if (static_cast<int64_t>(k.ids.size()) != kEntityRows) return false;
    auto recomputed = session->ExecuteQuery(EntitySql(k.lo / kEntityRows));
    if (!recomputed.ok()) return false;
    const Kept fresh = Keep(k.lo, *recomputed);
    auto ref = ReferencePredictions(model_, table, features_, k.lo, hi, nullptr);
    if (!ref.ok() || fresh.ids.size() != k.ids.size()) return false;
    std::vector<float> fresh_by_id(static_cast<size_t>(kEntityRows));
    std::vector<char> seen(static_cast<size_t>(kEntityRows), 0);
    for (size_t i = 0; i < fresh.ids.size(); ++i) {
      const int64_t id = fresh.ids[i];
      if (id < k.lo || id >= hi) return false;
      fresh_by_id[static_cast<size_t>(id - k.lo)] = fresh.predictions[i];
    }
    for (size_t i = 0; i < k.ids.size(); ++i) {
      const int64_t id = k.ids[i];
      if (id < k.lo || id >= hi || seen[static_cast<size_t>(id - k.lo)] != 0) return false;
      seen[static_cast<size_t>(id - k.lo)] = 1;
      const float got = k.predictions[i];
      const float again = fresh_by_id[static_cast<size_t>(id - k.lo)];
      if (std::memcmp(&got, &again, sizeof(float)) != 0) return false;
      const double want = (*ref)[static_cast<size_t>(id - k.lo)];
      if (!WithinTolerance(got, want, 1.0 + std::fabs(want))) return false;
    }
    return true;
  }

  const uint64_t seed_;
  const std::vector<std::string> features_ = FeatureNames(4, "f");
  const ZipfEntitySampler sampler_;
  std::unique_ptr<indbml::server::QueryServer> server_;
  nn::Model model_;
  uint64_t rounds_ = 0;
  std::vector<Kept> kept_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"infer_batch", "mltosql_dense", "serve_zipf"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "infer_batch") return std::make_unique<InferBatch>(seed);
  if (name == "mltosql_dense") return std::make_unique<MlToSqlDense>(seed);
  if (name == "serve_zipf") return std::make_unique<ServeZipf>(seed);
  return nullptr;
}

}  // namespace perfbench
