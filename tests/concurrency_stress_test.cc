// Concurrency stress tests, written to run under ThreadSanitizer
// (-DINDBML_SANITIZE=thread). Each test hammers one of the engine's shared
// concurrency primitives hard enough that a missing happens-before edge
// shows up as a TSan report (or, without TSan, as a flaky count mismatch).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/workloads.h"
#include "common/config.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "exec/morsel.h"
#include "inference/cache.h"
#include "inference/shared_model.h"
#include "mltosql/mltosql.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "sql/query_engine.h"
#include "test_util.h"

namespace indbml {
namespace {

// Small under TSan-free builds would finish instantly; sized so a TSan build
// still completes in seconds on one core.
constexpr int kRounds = 50;
constexpr int kTasksPerRound = 64;

/// Submit/WaitIdle churn: a task counted as finished must have all its
/// writes visible to the waiter.
TEST(ThreadPoolStressTest, SubmitWaitIdleHammer) {
  ThreadPool pool(4);
  int64_t plain_counter = 0;  // deliberately non-atomic: WaitIdle must order it
  std::atomic<int64_t> atomic_counter{0};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<int64_t> results(kTasksPerRound, 0);
    for (int t = 0; t < kTasksPerRound; ++t) {
      pool.Submit([&results, &atomic_counter, t] {
        results[static_cast<size_t>(t)] = t + 1;
        atomic_counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.WaitIdle();
    // Every task's write must be visible after WaitIdle returns.
    for (int t = 0; t < kTasksPerRound; ++t) {
      ASSERT_EQ(results[static_cast<size_t>(t)], t + 1) << "round " << round;
      plain_counter += 1;
    }
  }
  EXPECT_EQ(plain_counter, int64_t{kRounds} * kTasksPerRound);
  EXPECT_EQ(atomic_counter.load(), int64_t{kRounds} * kTasksPerRound);
}

/// WaitIdle on an empty pool and zero-task rounds must not hang or race.
TEST(ThreadPoolStressTest, WaitIdleWithoutWork) {
  ThreadPool pool(2);
  for (int i = 0; i < 100; ++i) pool.WaitIdle();
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1);
}

/// ParallelFor writes to disjoint slots; the implicit wait must publish them.
TEST(ThreadPoolStressTest, ParallelForDisjointWrites) {
  ThreadPool pool(4);
  constexpr int kN = 512;
  std::vector<int64_t> data(kN, 0);
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(kN, [&data, round](int i) {
      data[static_cast<size_t>(i)] = int64_t{round} * kN + i;
    });
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(data[static_cast<size_t>(i)], int64_t{round} * kN + i);
    }
  }
}

/// Concurrent metric updates while another thread snapshots the registry.
/// Update paths are relaxed atomics; snapshots take the registry mutex, so
/// the only requirement is absence of data races, not a consistent cut.
TEST(MetricsStressTest, ConcurrentUpdatesAndSnapshots) {
  auto& registry = metrics::Registry::Global();
  metrics::Counter* counter = registry.counter("stress.counter");
  metrics::Gauge* gauge = registry.gauge("stress.gauge");
  metrics::Histogram* histogram = registry.histogram("stress.histogram");
  counter->Reset();
  histogram->Reset();

  constexpr int kWriters = 3;
  constexpr int kUpdates = 5000;
  ThreadPool pool(kWriters + 1);
  std::atomic<bool> done{false};
  // Snapshot reader: exercises TextSnapshot/JsonSnapshot/FlatValues against
  // live writers.
  pool.Submit([&registry, &done] {
    while (!done.load(std::memory_order_acquire)) {
      std::string text = registry.TextSnapshot();
      ASSERT_NE(text.find("stress.counter"), std::string::npos);
      (void)registry.JsonSnapshot();
      (void)registry.FlatValues();
    }
  });
  for (int w = 0; w < kWriters; ++w) {
    pool.Submit([counter, gauge, histogram, w] {
      for (int i = 0; i < kUpdates; ++i) {
        counter->Increment();
        gauge->Set(w * kUpdates + i);
        histogram->Record(i);
      }
    });
  }
  // Writers finish, then release the reader. WaitIdle would deadlock with a
  // spinning reader, so flip the flag once the counter shows all updates.
  while (counter->value() < int64_t{kWriters} * kUpdates) {
  }
  done.store(true, std::memory_order_release);
  pool.WaitIdle();

  EXPECT_EQ(counter->value(), int64_t{kWriters} * kUpdates);
  EXPECT_EQ(histogram->count(), int64_t{kWriters} * kUpdates);
  EXPECT_GE(gauge->max(), kUpdates - 1);
}

/// MorselSource under contention: 8 workers hammer one source of tiny
/// morsels. Every morsel must be handed out exactly once with its correct
/// row range. The per-morsel payload slot is written with a deliberately
/// plain (non-atomic) store — a double hand-out becomes a data race TSan
/// reports, and without TSan the claim counters catch it.
TEST(MorselSourceStressTest, ContendedClaimsAreExactlyOnce) {
  constexpr int kWorkers = 8;
  constexpr int64_t kMorsels = 4096;
  std::vector<storage::PartitionRange> morsels;
  morsels.reserve(static_cast<size_t>(kMorsels));
  for (int64_t i = 0; i < kMorsels; ++i) {
    morsels.push_back({i * 4, i * 4 + 4});
  }
  ThreadPool pool(kWorkers);
  for (int round = 0; round < 10; ++round) {
    exec::MorselSource source(morsels);
    std::vector<std::atomic<int>> claims(static_cast<size_t>(kMorsels));
    for (auto& c : claims) c.store(0, std::memory_order_relaxed);
    std::vector<int64_t> payload(static_cast<size_t>(kMorsels), -1);
    std::atomic<int64_t> range_mismatches{0};
    for (int w = 0; w < kWorkers; ++w) {
      pool.Submit([&source, &claims, &payload, &range_mismatches] {
        exec::Morsel m;
        while (source.Next(&m)) {
          if (m.begin != m.index * 4 || m.end != m.index * 4 + 4) {
            range_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          payload[static_cast<size_t>(m.index)] = m.begin;  // plain write
          claims[static_cast<size_t>(m.index)].fetch_add(
              1, std::memory_order_relaxed);
        }
      });
    }
    pool.WaitIdle();
    EXPECT_EQ(range_mismatches.load(), 0);
    for (int64_t i = 0; i < kMorsels; ++i) {
      ASSERT_EQ(claims[static_cast<size_t>(i)].load(), 1)
          << "morsel " << i << " in round " << round;
      ASSERT_EQ(payload[static_cast<size_t>(i)], i * 4);
    }
    // Dry source keeps returning false without handing out more work.
    exec::Morsel extra;
    EXPECT_FALSE(source.Next(&extra));
  }
}

/// Abort mid-drain: workers racing Next against an Abort must stop without
/// double-claims; an aborted source never hands out another morsel.
TEST(MorselSourceStressTest, AbortStopsHandouts) {
  constexpr int kWorkers = 4;
  std::vector<storage::PartitionRange> morsels;
  for (int64_t i = 0; i < 100000; ++i) morsels.push_back({i, i + 1});
  ThreadPool pool(kWorkers);
  exec::MorselSource source(std::move(morsels));
  std::atomic<int64_t> claimed{0};
  for (int w = 0; w < kWorkers; ++w) {
    // Whichever worker claims past the threshold aborts: pinning the abort
    // to one worker fails under load when the others drain every morsel
    // before that worker's task starts.
    pool.Submit([&source, &claimed] {
      exec::Morsel m;
      while (source.Next(&m)) {
        if (claimed.fetch_add(1, std::memory_order_relaxed) > 500) {
          source.Abort();
        }
      }
    });
  }
  pool.WaitIdle();
  EXPECT_TRUE(source.aborted());
  EXPECT_LT(claimed.load(), 100000);
  exec::Morsel extra;
  EXPECT_FALSE(source.Next(&extra));
}

// Threads mix Lookup, Insert, InvalidateModel and set_capacity_bytes on one
// InferenceCache. Every cached value is a function of its (model, key), so
// each hit is verified bit for bit: a torn slot, a misread geometry after a
// concurrent resize, or a stale table would all surface as a wrong value.
TEST(InferenceCacheStressTest, MixedOperationsServeOnlyTrueValues) {
  inference::InferenceCache cache;
  cache.set_capacity_bytes(64 << 10);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1500;
  constexpr int64_t kBatch = 16;
  // Model m has m + 1 features and 1 + m % 2 outputs.
  auto value = [](int64_t model, int64_t key, int64_t p) {
    return static_cast<float>(key * 3 + model * 1000 + p);
  };
  auto fill = [](int64_t model, int64_t first, int64_t d, std::vector<float>* in) {
    in->assign(static_cast<size_t>(d * kBatch), 0.0f);
    for (int64_t j = 0; j < kBatch; ++j) {
      const int64_t key = (first + j) % 512;
      for (int64_t f = 0; f < d; ++f) {
        // Feature 1 is -0.0 for odd keys and 0.0 for even ones: distinct keys.
        const float v = f == 1 ? (key % 2 == 1 ? -0.0f : 0.0f)
                               : static_cast<float>(key + f * model);
        (*in)[static_cast<size_t>(f * kBatch + j)] = v;
      }
    }
  };
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> in, out, values;
      std::vector<char> hit;
      uint64_t state = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
      auto next = [&state](uint64_t bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % bound;
      };
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto model = static_cast<int64_t>(1 + next(3));
        const int64_t d = model + 1;
        const int64_t o = 1 + model % 2;
        const auto first = static_cast<int64_t>(next(512));
        const uint64_t op = next(100);
        fill(model, first, d, &in);
        if (op < 50) {
          out.assign(static_cast<size_t>(o * kBatch), -1.0f);
          hit.assign(static_cast<size_t>(kBatch), 0);
          hits += cache.Lookup(model, in.data(), kBatch, d, o, out.data(), &hit);
          for (int64_t j = 0; j < kBatch; ++j) {
            if (hit[static_cast<size_t>(j)] == 0) continue;
            for (int64_t p = 0; p < o; ++p) {
              const float want = value(model, (first + j) % 512, p);
              const float got = out[static_cast<size_t>(p * kBatch + j)];
              if (std::memcmp(&want, &got, sizeof(float)) != 0) ++wrong;
            }
          }
        } else if (op < 95) {
          values.resize(static_cast<size_t>(o * kBatch));
          for (int64_t j = 0; j < kBatch; ++j) {
            for (int64_t p = 0; p < o; ++p) {
              values[static_cast<size_t>(p * kBatch + j)] =
                  value(model, (first + j) % 512, p);
            }
          }
          cache.Insert(model, in.data(), kBatch, d, o, values.data());
        } else if (op < 98) {
          cache.InvalidateModel(model);
        } else {
          const int64_t capacities[] = {0, 8 << 10, 64 << 10, 256 << 10};
          cache.set_capacity_bytes(capacities[next(4)]);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(hits.load(), 0);
  EXPECT_LE(cache.GetStats().bytes, cache.capacity_bytes());
}

/// Concurrent ModelJoin model builds: several client threads each build a
/// model with SharedModel::FromTable on one shared pool, so their parse
/// tasks interleave in the pool's queue. Every build must complete with the
/// full weights visible to its caller.
TEST(SharedModelStressTest, ConcurrentBuildRounds) {
  // Deep enough for several kRowsPerBlock blocks per build.
  auto model_or = nn::MakeDenseBenchmarkModel(/*width=*/48, /*depth=*/6, 7);
  ASSERT_TRUE(model_or.ok());
  nn::Model model = std::move(model_or).ValueOrDie();
  mltosql::MlToSql framework(&model, "m");
  auto table_or = framework.BuildModelTable();
  ASSERT_TRUE(table_or.ok());
  storage::TablePtr table = std::move(table_or).ValueOrDie();
  ASSERT_GT(table->num_rows(), 2 * kRowsPerBlock);
  auto cpu = device::MakeCpuDevice();

  constexpr int kBuilders = 3;
  ThreadPool pool(4);
  ThreadPool builders(kBuilders);
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> mismatches{0};
  builders.ParallelFor(kBuilders, [&](int) {
    for (int round = 0; round < 10; ++round) {
      auto shared = inference::SharedModel::FromTable(
          nn::MetaOf(model, "m"), cpu.get(), 256, *table, &pool);
      if (!shared.ok()) {
        failures.fetch_add(1);
        continue;
      }
      // Spot-check: every block's writes are visible after the build.
      for (size_t li = 0; li < model.layers().size(); ++li) {
        const nn::DenseLayer& dense = model.layers()[li].dense;
        const float* w = shared.ValueOrDie()->dense_kernel(li);
        for (int64_t in = 0; in < dense.input_dim; ++in) {
          for (int64_t out = 0; out < dense.units; ++out) {
            if (w[out * dense.input_dim + in] != dense.kernel.At(in, out)) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

/// Several clients share one QueryEngine and run per-query ModelJoin builds
/// (shared_models = false) concurrently on the engine's 4-thread pool. The
/// build phase and the pipeline both call ParallelFor from the client
/// threads, so their tasks interleave in one queue; no query may wait on
/// another query's tasks. A watchdog turns a deadlock into a failure.
TEST(ModelJoinConcurrencyTest, ConcurrentModelJoinClientsOnOneEngine) {
  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 50;
  constexpr int64_t kRows = 4000;
  auto fact = benchlib::MakeIrisTable("fact", kRows);
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 21));
  auto make_engine = [&](int workers) {
    sql::QueryEngine::Options options;
    options.worker_threads = workers;  // explicit: multi-worker on 1-core hosts
    options.morsel_rows = 512;
    auto engine = std::make_unique<sql::QueryEngine>(options);
    modeljoin::RegisterNativeModelJoin(engine.get());
    INDBML_CHECK(engine->catalog()->CreateTable(fact).ok());
    mltosql::MlToSql framework(&model, "m");
    INDBML_CHECK(framework.Deploy(engine.get()).ok());
    engine->models()->Register(nn::MetaOf(model, "dense16"));
    return engine;
  };
  const std::string query =
      "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'dense16' "
      "DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
      "petal_width)";
  auto serial = make_engine(1);
  ASSERT_OK_AND_ASSIGN(auto reference, serial->ExecuteQuery(query));
  ASSERT_EQ(reference.num_rows, kRows);

  auto engine = make_engine(4);
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> mismatches{0};
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread runner([&] {
    ThreadPool clients(kClients);
    clients.ParallelFor(kClients, [&](int) {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        auto result = engine->ExecuteQuery(query);
        if (!result.ok() || result->num_rows != reference.num_rows) {
          failures.fetch_add(1);
          continue;
        }
        for (int64_t r = 0; r < reference.num_rows; ++r) {
          if (result->GetValue(r, 0).i != reference.GetValue(r, 0).i ||
              result->GetValue(r, 1).f != reference.GetValue(r, 1).f) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
    finished.set_value();
  });
  if (done.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
    // The blocked pool threads can never be joined; end the process so the
    // suite fails instead of hanging.
    std::fprintf(stderr,
                 "ConcurrentModelJoinClientsOnOneEngine: queries deadlocked "
                 "(no progress within 120 s)\n");
    std::_Exit(1);
  }
  runner.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

/// Shared-Buffer lifetime under concurrency: a morsel-driven filter query
/// returns chunks that are selection views sharing the base table's column
/// buffers across worker threads. Dropping the table from the catalog,
/// destroying the engine, and releasing the last named TablePtr must leave
/// every view readable — the ref-counted buffers are the only thing keeping
/// the data alive (TSan/ASan guard the reads below).
TEST(SharedBufferStressTest, ResultViewsOutliveEngineAndTable) {
  constexpr int64_t kRows = 50000;
  exec::QueryResult result;
  {
    auto table = std::make_shared<storage::Table>(
        "t", std::vector<storage::Field>{{"id", storage::DataType::kInt64},
                                         {"k", storage::DataType::kInt64},
                                         {"x", storage::DataType::kFloat}});
    table->Reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      ASSERT_OK(table->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Int64(i % 5),
                                  storage::Value::Float(static_cast<float>(i))}));
    }
    table->Finalize();
    table->SetUniqueIdColumn("id");
    table->SetSortedBy({"id"});

    sql::QueryEngine::Options options;
    options.worker_threads = 5;
    options.morsel_rows = 64;
    auto engine = std::make_unique<sql::QueryEngine>(options);
    ASSERT_OK(engine->catalog()->CreateTable(table));
    ASSERT_OK_AND_ASSIGN(result, engine->ExecuteQuery(
                                     "SELECT t.id, t.x FROM t WHERE t.k = 3"));
    ASSERT_OK(engine->catalog()->DropTable("t"));
    engine.reset();
    // `table` — the last named owner — dies at scope end.
  }

  ASSERT_EQ(result.num_rows, kRows / 5);
  // Hammer the orphaned views from several threads at once: concurrent
  // readers of the shared immutable buffers must be race-free.
  constexpr int kReaders = 4;
  ThreadPool pool(kReaders);
  std::vector<int64_t> sums(kReaders, 0);
  for (int p = 0; p < kReaders; ++p) {
    pool.Submit([&result, &sums, p] {
      const int64_t stripe = (result.num_rows + kReaders - 1) / kReaders;
      const int64_t begin = p * stripe;
      const int64_t end = std::min(result.num_rows, begin + stripe);
      int64_t sum = 0;
      for (int64_t r = begin; r < end; ++r) sum += result.GetValue(r, 0).i;
      sums[static_cast<size_t>(p)] = sum;
    });
  }
  pool.WaitIdle();
  int64_t total = 0;
  for (int64_t s : sums) total += s;
  // ids ≡ 3 (mod 5) over [0, kRows): 10000 survivors summing to 250005000.
  EXPECT_EQ(total, 250005000);
}

}  // namespace
}  // namespace indbml
