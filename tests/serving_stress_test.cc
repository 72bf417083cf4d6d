// Serving-stack stress tests, written to run under ThreadSanitizer
// (-DINDBML_SANITIZE=thread): N client sessions hammer one QueryServer with
// identical and distinct queries while options churn and cancellations land
// mid-flight. Functional assertions are deliberately loose where outcomes
// race (a cancel may lose against completion); the point is that every
// interleaving is data-race-free and nothing wedges.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/workloads.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "mltosql/mltosql.h"
#include "modeljoin/model_registry.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "server/server.h"
#include "test_util.h"

namespace indbml {
namespace {

constexpr int kClients = 8;
constexpr int kRepsPerClient = 6;

std::unique_ptr<server::QueryServer> MakeServer(
    server::QueryServer::Options options = {}) {
  auto srv = std::make_unique<server::QueryServer>(options);
  modeljoin::RegisterNativeModelJoin(srv->engine());
  return srv;
}

void DeployDense(server::QueryServer* srv, const std::string& name) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 21));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(srv->engine()));
  srv->engine()->models()->Register(nn::MetaOf(model, name));
}

/// All clients run the same dense ModelJoin query through private sessions:
/// the shared registry must build the model exactly once and every client
/// must see the full, identical result.
TEST(ServingStressTest, ConcurrentModelJoinSharesOneBuild) {
  modeljoin::SharedModelRegistry::Global().Clear();
  auto srv = MakeServer();
  constexpr int64_t kRows = 2000;
  ASSERT_OK(srv->catalog()->CreateTable(benchlib::MakeIrisTable("fact", kRows)));
  DeployDense(srv.get(), "dense16");
  const std::string query =
      "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'dense16' "
      "DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
      "petal_width)";

  const int64_t builds0 =
      metrics::Registry::Global().counter("modeljoin.registry_builds")->value();
  std::atomic<int64_t> ok_queries{0};
  std::atomic<int64_t> row_sum{0};
  ThreadPool clients(kClients);
  clients.ParallelFor(kClients, [&](int /*client*/) {
    auto session = srv->CreateSession();
    for (int rep = 0; rep < kRepsPerClient; ++rep) {
      auto result = session->ExecuteQuery(query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      row_sum.fetch_add(result.ValueOrDie().num_rows);
      ok_queries.fetch_add(1);
    }
  });
  EXPECT_EQ(ok_queries.load(), kClients * kRepsPerClient);
  EXPECT_EQ(row_sum.load(), kRows * kClients * kRepsPerClient);
  EXPECT_EQ(
      metrics::Registry::Global().counter("modeljoin.registry_builds")->value(),
      builds0 + 1)
      << "N concurrent sessions over one model must share exactly one build";
}

/// Distinct relational queries, per-session option churn and periodic
/// cancellations, all interleaved on the shared executor.
TEST(ServingStressTest, MixedQueriesOptionChurnAndCancellation) {
  modeljoin::SharedModelRegistry::Global().Clear();
  server::QueryServer::Options options;
  options.max_inflight_queries = 4;
  options.max_queued_queries = 256;
  auto srv = MakeServer(options);
  constexpr int64_t kRows = 60000;
  ASSERT_OK(srv->catalog()->CreateTable(benchlib::MakeIrisTable("fact", kRows)));

  const std::vector<std::string> queries = {
      "SELECT COUNT(*) AS n FROM fact",
      "SELECT class, COUNT(*) AS n FROM fact GROUP BY class",
      "SELECT SUM(sepal_length) AS s FROM fact WHERE sepal_width > 2.0",
      "SELECT id, petal_length FROM fact ORDER BY petal_length, id LIMIT 5",
  };

  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> cancelled{0};
  ThreadPool clients(kClients);
  clients.ParallelFor(kClients, [&](int client) {
    auto session = srv->CreateSession();
    session->set_priority(1 + client % 3);
    for (int rep = 0; rep < kRepsPerClient; ++rep) {
      // Option churn: the snapshot contract means in-flight queries are
      // unaffected; later ones pick the new values up.
      auto opts = session->options();
      opts.morsel_rows = (rep % 2 == 0) ? 256 : 1024;
      session->set_options(opts);

      const std::string& sql = queries[(client + rep) % queries.size()];
      auto handle = session->Submit(sql);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      if ((client + rep) % 3 == 0) {
        handle.ValueOrDie()->Cancel();
      }
      auto result = handle.ValueOrDie()->Wait();
      if (result.ok()) {
        completed.fetch_add(1);
      } else {
        ASSERT_EQ(result.status().code(), StatusCode::kCancelled)
            << result.status().ToString();
        cancelled.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(completed.load() + cancelled.load(), kClients * kRepsPerClient);
  // The executor must still be serviceable after the churn.
  auto session = srv->CreateSession();
  ASSERT_OK_AND_ASSIGN(auto result,
                       session->ExecuteQuery("SELECT COUNT(*) AS n FROM fact"));
  EXPECT_EQ(result.GetValue(0, 0).i, kRows);
}

/// ISSUE 10 hot path under TSan: 8 clients hammer one model through the
/// serving defaults (micro-batching and the result cache on), cancellations
/// land inside inference waits, and the model is redeployed mid-stress so
/// registry + inference-cache invalidation races live traffic. Outcomes are
/// loose (a cancel may lose to completion); interleavings must be
/// race-free and nothing may wedge.
TEST(ServingStressTest, SameModelChurnWithBatchingAndCache) {
  modeljoin::SharedModelRegistry::Global().Clear();
  auto srv = MakeServer();  // serving defaults: 100 µs window, cache on
  constexpr int64_t kRows = 4000;
  ASSERT_OK(srv->catalog()->CreateTable(benchlib::MakeIrisTable("fact", kRows)));
  DeployDense(srv.get(), "hot");
  const std::string query =
      "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'hot' "
      "DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
      "petal_width)";

  const int64_t batches0 =
      metrics::Registry::Global().counter("inference.batches")->value();
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> cancelled{0};
  std::atomic<bool> stop{false};
  // Deployment churn concurrent with the query storm: every redeploy swaps
  // the model table, invalidates the shared build and drops the model's
  // cached predictions.
  std::thread churn([&] {
    for (int i = 0; i < 5 && !stop.load(); ++i) {
      DeployDense(srv.get(), "hot");
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  ThreadPool clients(kClients);
  clients.ParallelFor(kClients, [&](int client) {
    auto session = srv->CreateSession();
    for (int rep = 0; rep < kRepsPerClient; ++rep) {
      auto handle = session->Submit(query);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      if ((client + rep) % 4 == 0) {
        handle.ValueOrDie()->Cancel();
      }
      auto result = handle.ValueOrDie()->Wait();
      if (result.ok()) {
        EXPECT_EQ(result.ValueOrDie().num_rows, kRows);
        completed.fetch_add(1);
      } else {
        ASSERT_EQ(result.status().code(), StatusCode::kCancelled)
            << result.status().ToString();
        cancelled.fetch_add(1);
      }
    }
  });
  stop.store(true);
  churn.join();
  EXPECT_EQ(completed.load() + cancelled.load(), kClients * kRepsPerClient);
  EXPECT_GT(completed.load(), 0);
  EXPECT_GT(
      metrics::Registry::Global().counter("inference.batches")->value(),
      batches0);
  // Still serviceable, and still correct, after the churn.
  auto session = srv->CreateSession();
  ASSERT_OK_AND_ASSIGN(auto result, session->ExecuteQuery(query));
  EXPECT_EQ(result.num_rows, kRows);
}

/// Saturation: more concurrent submits than run + wait queue slots. Every
/// submit either lands or is rejected with kResourceExhausted; accepted ones
/// all finish.
TEST(ServingStressTest, AdmissionControlUnderSaturation) {
  modeljoin::SharedModelRegistry::Global().Clear();
  server::QueryServer::Options options;
  options.worker_threads = 2;
  options.max_inflight_queries = 2;
  options.max_queued_queries = 4;
  auto srv = MakeServer(options);
  ASSERT_OK(srv->catalog()->CreateTable(benchlib::MakeIrisTable("fact", 20000)));

  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> rejected{0};
  ThreadPool clients(kClients);
  clients.ParallelFor(kClients, [&](int /*client*/) {
    auto session = srv->CreateSession();
    for (int rep = 0; rep < kRepsPerClient; ++rep) {
      auto handle =
          session->Submit("SELECT SUM(petal_width) AS s FROM fact");
      if (!handle.ok()) {
        ASSERT_EQ(handle.status().code(), StatusCode::kResourceExhausted)
            << handle.status().ToString();
        rejected.fetch_add(1);
        continue;
      }
      auto result = handle.ValueOrDie()->Wait();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      accepted.fetch_add(1);
    }
  });
  EXPECT_EQ(accepted.load() + rejected.load(), kClients * kRepsPerClient);
  EXPECT_GT(accepted.load(), 0);
}

}  // namespace
}  // namespace indbml
