// Tests of the serving stack (src/server/): session submit/cancel over the
// shared executor, the prepared-statement plan cache (hit/miss/eviction and
// catalog-version invalidation), the process-wide SharedModelRegistry
// (build-once sharing, invalidation on model redeploy), admission control,
// and result identity with the plain QueryEngine path.

#include "server/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/workloads.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "inference/cache.h"
#include "mltosql/mltosql.h"
#include "modeljoin/model_registry.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

using testutil::I;

int64_t CounterValue(const std::string& name) {
  return metrics::Registry::Global().counter(name)->value();
}

void ExpectRowIdentical(const exec::QueryResult& got,
                        const exec::QueryResult& want) {
  ASSERT_EQ(got.num_rows, want.num_rows);
  ASSERT_EQ(got.names.size(), want.names.size());
  for (int64_t r = 0; r < want.num_rows; ++r) {
    for (size_t c = 0; c < want.names.size(); ++c) {
      EXPECT_EQ(got.GetValue(r, static_cast<int64_t>(c)).ToString(),
                want.GetValue(r, static_cast<int64_t>(c)).ToString())
          << "row " << r << " col " << c;
    }
  }
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { modeljoin::SharedModelRegistry::Global().Clear(); }

  static std::unique_ptr<server::QueryServer> MakeServer(
      server::QueryServer::Options options = {}) {
    auto srv = std::make_unique<server::QueryServer>(options);
    modeljoin::RegisterNativeModelJoin(srv->engine());
    return srv;
  }

  static void LoadIris(server::QueryServer* srv, int64_t rows) {
    ASSERT_OK(srv->catalog()->CreateTable(benchlib::MakeIrisTable("fact", rows)));
  }

  static void DeployDense(server::QueryServer* srv, int64_t width, int64_t depth,
                          const std::string& name) {
    ASSERT_OK_AND_ASSIGN(nn::Model model,
                         nn::MakeDenseBenchmarkModel(width, depth, 21));
    mltosql::MlToSql framework(&model, "m");
    ASSERT_OK(framework.Deploy(srv->engine()));
    srv->engine()->models()->Register(nn::MetaOf(model, name));
  }

  static std::string DenseQuery(const std::string& model) {
    return "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL '" +
           model +
           "' DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
           "petal_width)";
  }
};

TEST_F(ServerTest, SessionResultsMatchEngine) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 4000);
  auto session = srv->CreateSession();
  const std::string query =
      "SELECT class, COUNT(*) AS n, AVG(sepal_length) AS avg_len FROM fact "
      "WHERE sepal_width > 2.5 GROUP BY class ORDER BY class";
  ASSERT_OK_AND_ASSIGN(auto via_session, session->ExecuteQuery(query));
  ASSERT_OK_AND_ASSIGN(auto via_engine, srv->engine()->ExecuteQuery(query));
  ExpectRowIdentical(via_session, via_engine);
  EXPECT_GT(via_session.num_rows, 0);
}

TEST_F(ServerTest, SerialPlanRunsOnExecutor) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 1000);
  auto session = srv->CreateSession();
  // Global sort + limit is not parallel-safe: exercises the serial job path.
  const std::string query =
      "SELECT id, sepal_length FROM fact ORDER BY sepal_length, id LIMIT 7";
  ASSERT_OK_AND_ASSIGN(auto via_session, session->ExecuteQuery(query));
  ASSERT_OK_AND_ASSIGN(auto via_engine, srv->engine()->ExecuteQuery(query));
  ASSERT_EQ(via_session.num_rows, 7);
  ExpectRowIdentical(via_session, via_engine);
}

TEST_F(ServerTest, EmptyTableQueryKeepsSchema) {
  auto srv = MakeServer();
  ASSERT_OK(srv->catalog()->CreateTable(benchlib::MakeIrisTable("fact", 0)));
  auto session = srv->CreateSession();
  ASSERT_OK_AND_ASSIGN(auto result,
                       session->ExecuteQuery("SELECT id, class FROM fact"));
  EXPECT_EQ(result.num_rows, 0);
  ASSERT_EQ(result.names.size(), 2u);
  EXPECT_EQ(result.names[0], "id");
}

TEST_F(ServerTest, PlanCacheHitSkipsPlanning) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 500);
  auto session = srv->CreateSession();
  const std::string query = "SELECT COUNT(*) AS n FROM fact";
  const int64_t hits0 = CounterValue("server.plan_cache_hits");
  const int64_t misses0 = CounterValue("server.plan_cache_misses");
  ASSERT_OK_AND_ASSIGN(auto first, session->ExecuteQuery(query));
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0 + 1);
  EXPECT_EQ(CounterValue("server.plan_cache_hits"), hits0);
  ASSERT_OK_AND_ASSIGN(auto second, session->ExecuteQuery(query));
  EXPECT_EQ(CounterValue("server.plan_cache_hits"), hits0 + 1);
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0 + 1);
  ExpectRowIdentical(second, first);
  EXPECT_EQ(srv->plan_cache()->size(), 1);
}

TEST_F(ServerTest, PlanCacheEvictsLru) {
  server::QueryServer::Options options;
  options.plan_cache_capacity = 2;
  auto srv = MakeServer(options);
  LoadIris(srv.get(), 100);
  auto session = srv->CreateSession();
  const int64_t evictions0 = CounterValue("server.plan_cache_evictions");
  ASSERT_OK(session->ExecuteQuery("SELECT COUNT(*) AS n FROM fact").status());
  ASSERT_OK(session->ExecuteQuery("SELECT id FROM fact").status());
  ASSERT_OK(session->ExecuteQuery("SELECT class FROM fact").status());
  EXPECT_EQ(srv->plan_cache()->size(), 2);
  EXPECT_EQ(CounterValue("server.plan_cache_evictions"), evictions0 + 1);
}

TEST_F(ServerTest, PlanCacheInvalidatedByCatalogChange) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 200);
  auto session = srv->CreateSession();
  const std::string query = "SELECT COUNT(*) AS n FROM fact";
  ASSERT_OK_AND_ASSIGN(auto before, session->ExecuteQuery(query));
  EXPECT_EQ(before.GetValue(0, 0).i, 200);
  // Replacing the table bumps the catalog version: the cached plan (bound to
  // the old table) must not be reused.
  srv->catalog()->CreateOrReplaceTable(benchlib::MakeIrisTable("fact", 300));
  const int64_t misses0 = CounterValue("server.plan_cache_misses");
  ASSERT_OK_AND_ASSIGN(auto after, session->ExecuteQuery(query));
  EXPECT_EQ(after.GetValue(0, 0).i, 300);
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0 + 1);
}

TEST_F(ServerTest, PlanCacheKeyedOnOptionsFingerprint) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 100);
  auto session = srv->CreateSession();
  const std::string query = "SELECT COUNT(*) AS n FROM fact";
  ASSERT_OK(session->ExecuteQuery(query).status());
  auto opts = session->options();
  opts.optimizer.predicate_pushdown = !opts.optimizer.predicate_pushdown;
  session->set_options(opts);
  const int64_t misses0 = CounterValue("server.plan_cache_misses");
  ASSERT_OK(session->ExecuteQuery(query).status());
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0 + 1)
      << "different options must not share a cached plan";
  EXPECT_EQ(srv->plan_cache()->size(), 2);
}

// Planning reads only the optimizer options, so sessions that differ only
// in execution settings share one cached plan and still run it their way.
TEST_F(ServerTest, PlanCacheSharedAcrossExecutionOnlyOptions) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 2000);
  DeployDense(srv.get(), 16, 3, "dense16");
  const std::string query = DenseQuery("dense16");
  ASSERT_OK_AND_ASSIGN(auto reference, srv->engine()->ExecuteQuery(query));

  auto first = srv->CreateSession();
  auto second = srv->CreateSession();
  auto opts = second->options();
  opts.morsel_rows = opts.morsel_rows / 4;
  opts.worker_threads = opts.worker_threads + 3;
  opts.shared_models = !opts.shared_models;
  opts.inference.batch_window_us = opts.inference.batch_window_us == 0 ? 200 : 0;
  opts.inference.max_batch_rows = opts.inference.max_batch_rows * 2;
  opts.inference.result_cache = !opts.inference.result_cache;
  second->set_options(opts);

  ASSERT_OK_AND_ASSIGN(auto via_first, first->ExecuteQuery(query));
  const int64_t misses0 = CounterValue("server.plan_cache_misses");
  ASSERT_OK_AND_ASSIGN(auto via_second, second->ExecuteQuery(query));
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0)
      << "execution-only options must not re-plan";
  EXPECT_EQ(srv->plan_cache()->size(), 1);
  ExpectRowIdentical(via_first, reference);
  ExpectRowIdentical(via_second, reference);
}

TEST_F(ServerTest, SharedModelBuiltExactlyOnceAcrossSessions) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 2000);
  DeployDense(srv.get(), 16, 3, "dense16");
  const std::string query = DenseQuery("dense16");

  const int64_t builds0 = CounterValue("modeljoin.registry_builds");
  // The reference runs through the same registry (server engines default to
  // shared models), so it participates in the build-once accounting.
  ASSERT_OK_AND_ASSIGN(auto reference, srv->engine()->ExecuteQuery(query));
  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<server::Session>> sessions;
  std::vector<std::shared_ptr<server::QueryHandle>> handles;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(srv->CreateSession());
    ASSERT_OK_AND_ASSIGN(auto handle, sessions.back()->Submit(query));
    handles.push_back(std::move(handle));
  }
  for (auto& handle : handles) {
    ASSERT_OK_AND_ASSIGN(auto result, handle->Wait());
    ExpectRowIdentical(result, reference);
  }
  EXPECT_EQ(CounterValue("modeljoin.registry_builds"), builds0 + 1)
      << "concurrent sessions over one model must share one build";
}

// Without shared models each query builds its own model before the job is
// submitted, so the plan runs on every executor thread (no single-instance
// special case) and must match a serial engine row for row.
TEST_F(ServerTest, PerQueryModelJoinRunsMultiInstance) {
  server::QueryServer::Options options;
  options.engine.shared_models = false;
  options.engine.morsel_rows = 512;
  options.worker_threads = 4;
  auto srv = MakeServer(options);
  constexpr int64_t kRows = 4000;  // 8 morsels of 512 rows
  LoadIris(srv.get(), kRows);
  DeployDense(srv.get(), 16, 3, "dense16");
  const std::string query = DenseQuery("dense16");

  sql::QueryEngine::Options serial_options;
  serial_options.worker_threads = 1;
  sql::QueryEngine serial(serial_options);
  modeljoin::RegisterNativeModelJoin(&serial);
  ASSERT_OK(serial.catalog()->CreateTable(benchlib::MakeIrisTable("fact", kRows)));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 21));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(&serial));
  serial.models()->Register(nn::MetaOf(model, "dense16"));
  ASSERT_OK_AND_ASSIGN(auto reference, serial.ExecuteQuery(query));
  ASSERT_EQ(reference.num_rows, kRows);

  const int64_t registry_builds = CounterValue("modeljoin.registry_builds");
  constexpr int kSessions = 3;
  std::vector<std::unique_ptr<server::Session>> sessions;
  std::vector<std::shared_ptr<server::QueryHandle>> handles;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(srv->CreateSession());
    ASSERT_OK_AND_ASSIGN(auto handle, sessions.back()->Submit(query));
    handles.push_back(std::move(handle));
  }
  for (auto& handle : handles) {
    ASSERT_OK_AND_ASSIGN(auto result, handle->Wait());
    ExpectRowIdentical(result, reference);
  }
  EXPECT_EQ(CounterValue("modeljoin.registry_builds"), registry_builds)
      << "per-query builds must bypass the registry";
}

/// Per-query models with the result cache on: every query's model gets a
/// table under its own id, and the table goes with the model, so the cache
/// never holds more than the queries in flight.
TEST_F(ServerTest, PerQueryModelsLeaveNoCacheTables) {
  server::QueryServer::Options options;
  options.engine.shared_models = false;
  options.worker_threads = 4;
  auto srv = MakeServer(options);
  constexpr int64_t kRows = 1000;
  LoadIris(srv.get(), kRows);
  DeployDense(srv.get(), 8, 2, "dense8");
  const std::string query = DenseQuery("dense8");
  inference::InferenceCache& cache = inference::InferenceCache::Global();
  const inference::InferenceCache::Stats before = cache.GetStats();
  // A query's model dies with its operators, which an executor thread may
  // tear down just after Wait() returns: give the count a moment to settle.
  auto settled = [&cache](int64_t tables) {
    for (int i = 0; i < 500 && cache.GetStats().tables > tables; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return cache.GetStats();
  };
  const int64_t misses0 = CounterValue("inference.cache_misses");
  constexpr int kSessions = 4;
  constexpr int kRounds = 25;
  std::vector<std::unique_ptr<server::Session>> sessions;
  for (int i = 0; i < kSessions; ++i) sessions.push_back(srv->CreateSession());
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::shared_ptr<server::QueryHandle>> handles;
    for (auto& session : sessions) {
      ASSERT_OK_AND_ASSIGN(auto handle, session->Submit(query));
      handles.push_back(std::move(handle));
    }
    for (auto& handle : handles) {
      ASSERT_OK_AND_ASSIGN(auto result, handle->Wait());
      ASSERT_EQ(result.num_rows, kRows);
    }
    handles.clear();
    const inference::InferenceCache::Stats stats = settled(before.tables);
    EXPECT_LE(stats.tables, before.tables) << "round " << round;
    EXPECT_LE(stats.entries, before.entries) << "round " << round;
    EXPECT_LE(stats.bytes, before.bytes) << "round " << round;
  }
  // Every row went through the cache: looked up, missed, inserted.
  EXPECT_GE(CounterValue("inference.cache_misses") - misses0,
            kRounds * kSessions * kRows);
}

TEST_F(ServerTest, RegistryInvalidatedOnModelRedeploy) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 500);
  DeployDense(srv.get(), 8, 2, "dense8");
  auto session = srv->CreateSession();
  const std::string query = DenseQuery("dense8");
  const int64_t builds0 = CounterValue("modeljoin.registry_builds");
  ASSERT_OK(session->ExecuteQuery(query).status());
  EXPECT_EQ(CounterValue("modeljoin.registry_builds"), builds0 + 1);
  // Redeploying replaces the model table: the registry must rebuild, not
  // serve the stale weights.
  DeployDense(srv.get(), 8, 2, "dense8");
  const int64_t invalidations0 = CounterValue("modeljoin.registry_invalidations");
  ASSERT_OK(session->ExecuteQuery(query).status());
  EXPECT_EQ(CounterValue("modeljoin.registry_builds"), builds0 + 2);
  EXPECT_EQ(CounterValue("modeljoin.registry_invalidations"), invalidations0 + 1);
}

TEST_F(ServerTest, ModelRegisterBumpsCatalogVersion) {
  auto srv = MakeServer();
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 21));
  const int64_t v0 = srv->catalog()->version();
  srv->engine()->models()->Register(nn::MetaOf(model, "dense8"));
  EXPECT_GT(srv->catalog()->version(), v0)
      << "a model DEPLOY must invalidate cached plans via the catalog version";
}

TEST_F(ServerTest, CachedPlanReresolvesRedeployedModel) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 300);
  DeployDense(srv.get(), 8, 2, "dense8");
  auto session = srv->CreateSession();
  const std::string query = DenseQuery("dense8");
  ASSERT_OK(session->ExecuteQuery(query).status());  // plan now cached

  // Redeploy a *different* model under the same name. The cached plan was
  // bound against the old metadata and weights; reusing it would serve the
  // old model's predictions.
  DeployDense(srv.get(), 16, 3, "dense8");
  const int64_t misses0 = CounterValue("server.plan_cache_misses");
  ASSERT_OK_AND_ASSIGN(auto after, session->ExecuteQuery(query));
  EXPECT_EQ(CounterValue("server.plan_cache_misses"), misses0 + 1)
      << "the redeploy must invalidate the cached plan";
  // The re-resolved plan serves the new model: identical to a fresh
  // engine-path run against the current deployment.
  ASSERT_OK_AND_ASSIGN(auto reference, srv->engine()->ExecuteQuery(query));
  ExpectRowIdentical(after, reference);
}

TEST_F(ServerTest, CancelDuringInferenceWaitReturnsPromptly) {
  server::QueryServer::Options options;
  options.worker_threads = 4;
  auto srv = MakeServer(options);
  // Big enough that inference is still mid-flight when Cancel lands.
  LoadIris(srv.get(), 300000);
  DeployDense(srv.get(), 16, 3, "dense16");
  auto session = srv->CreateSession();
  auto opts = session->options();
  // A pathological window: uncancelled, every coalescing wait could sit for
  // 2 s. Cancel must cut through it.
  opts.inference.batch_window_us = 2'000'000;
  opts.morsel_rows = 512;
  // Every morsel must reach the batcher. The iris rows repeat every 150
  // tuples, so with the result cache on all morsels after the first few
  // are cache hits and the query can finish before Cancel lands.
  opts.inference.result_cache = false;
  session->set_options(opts);

  Stopwatch watch;
  ASSERT_OK_AND_ASSIGN(auto handle, session->Submit(DenseQuery("dense16")));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  handle->Cancel();
  auto result = handle->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  EXPECT_LT(watch.ElapsedMicros(), 1'500'000)
      << "cancellation must interrupt the batcher wait, not sit it out";

  // The executor and the batcher must keep serving afterwards.
  ASSERT_OK_AND_ASSIGN(auto after, session->ExecuteQuery(DenseQuery("dense16")));
  EXPECT_EQ(after.num_rows, 300000);
}

TEST_F(ServerTest, CancelAbortsMidFlightWithoutWedgingExecutor) {
  server::QueryServer::Options options;
  options.worker_threads = 2;
  auto srv = MakeServer(options);
  // Big enough that the scan cannot finish before Cancel lands; tiny morsels
  // maximise claim checks.
  LoadIris(srv.get(), 400000);
  auto session = srv->CreateSession();
  auto opts = session->options();
  opts.morsel_rows = 64;
  session->set_options(opts);

  // Submit-then-cancel races against query completion: if this thread is
  // descheduled between the two calls (parallel test runs on a loaded
  // machine), the query can finish first and return OK. That outcome is
  // legal — retry until a cancellation lands mid-flight.
  bool cancelled = false;
  for (int attempt = 0; attempt < 10 && !cancelled; ++attempt) {
    ASSERT_OK_AND_ASSIGN(
        auto handle,
        session->Submit("SELECT class, SUM(sepal_length) AS s FROM fact "
                        "GROUP BY class"));
    handle->Cancel();
    auto result = handle->Wait();
    if (result.ok()) continue;  // completed before the cancel landed
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
    cancelled = true;
  }
  EXPECT_TRUE(cancelled) << "cancel never aborted the query in 10 attempts";

  // The executor must keep serving after a cancellation.
  ASSERT_OK_AND_ASSIGN(auto after,
                       session->ExecuteQuery("SELECT COUNT(*) AS n FROM fact"));
  EXPECT_EQ(after.GetValue(0, 0).i, 400000);
}

TEST_F(ServerTest, AdmissionControlRejectsWhenSaturated) {
  server::QueryServer::Options options;
  options.worker_threads = 1;
  options.max_inflight_queries = 1;
  options.max_queued_queries = 0;
  auto srv = MakeServer(options);
  LoadIris(srv.get(), 100);
  auto session = srv->CreateSession();

  // Deterministically occupy the only in-flight slot: a job whose factory
  // blocks until the gate opens.
  Mutex gate_mu;
  CondVar gate_cv;
  bool gate_open = false;
  server::JobSpec blocker;
  blocker.serial = true;
  blocker.factory = [&](int) -> Result<exec::OperatorPtr> {
    MutexLock lock(gate_mu);
    while (!gate_open) gate_cv.Wait(gate_mu);
    return Status::InvalidArgument("blocker done");
  };
  ASSERT_OK_AND_ASSIGN(auto slow, srv->executor()->Submit(std::move(blocker)));

  const int64_t rejects0 = CounterValue("server.admission_rejects");
  auto second = session->Submit("SELECT COUNT(*) AS n FROM fact");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted)
      << second.status().ToString();
  EXPECT_EQ(CounterValue("server.admission_rejects"), rejects0 + 1);

  {
    MutexLock lock(gate_mu);
    gate_open = true;
  }
  gate_cv.NotifyAll();
  EXPECT_FALSE(slow->Wait().ok());  // the blocker reports its sentinel error
  // The slot is free again: the same query is now admitted.
  ASSERT_OK_AND_ASSIGN(auto after,
                       session->ExecuteQuery("SELECT COUNT(*) AS n FROM fact"));
  EXPECT_EQ(after.GetValue(0, 0).i, 100);
}

TEST_F(ServerTest, QueuedQueryRunsAfterInflightFinishes) {
  server::QueryServer::Options options;
  options.worker_threads = 2;
  options.max_inflight_queries = 1;
  options.max_queued_queries = 8;
  auto srv = MakeServer(options);
  LoadIris(srv.get(), 50000);
  auto session = srv->CreateSession();
  ASSERT_OK_AND_ASSIGN(
      auto first, session->Submit("SELECT SUM(sepal_length) AS s FROM fact"));
  ASSERT_OK_AND_ASSIGN(auto second,
                       session->Submit("SELECT COUNT(*) AS n FROM fact"));
  ASSERT_OK_AND_ASSIGN(auto r1, first->Wait());
  ASSERT_OK_AND_ASSIGN(auto r2, second->Wait());
  EXPECT_GT(r1.num_rows, 0);
  EXPECT_EQ(r2.GetValue(0, 0).i, 50000);
}

TEST_F(ServerTest, SessionOptionSnapshotIsolatesRunningQueries) {
  auto srv = MakeServer();
  LoadIris(srv.get(), 100000);
  auto session = srv->CreateSession();
  ASSERT_OK_AND_ASSIGN(
      auto handle, session->Submit("SELECT SUM(petal_width) AS s FROM fact"));
  // Flipping options mid-flight must not affect the submitted query.
  auto opts = session->options();
  opts.morsel_rows = 128;
  session->set_options(opts);
  ASSERT_OK_AND_ASSIGN(auto result, handle->Wait());
  EXPECT_EQ(result.num_rows, 1);
}

TEST(SharedExecutorTest, PriorityClampAndDone) {
  server::QueryServer srv;
  auto session = srv.CreateSession();
  session->set_priority(-3);
  EXPECT_EQ(session->priority(), 1);
  session->set_priority(4);
  EXPECT_EQ(session->priority(), 4);
}

}  // namespace
}  // namespace indbml
