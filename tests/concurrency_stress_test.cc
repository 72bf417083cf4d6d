// Concurrency stress tests, written to run under ThreadSanitizer
// (-DINDBML_SANITIZE=thread). Each test hammers one of the engine's shared
// concurrency primitives hard enough that a missing happens-before edge
// shows up as a TSan report (or, without TSan, as a flaky count mismatch).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "exec/morsel.h"
#include "mltosql/mltosql.h"
#include "modeljoin/shared_model.h"
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

/// Submit/WaitIdle churn: WaitIdle() is the engine's pipeline barrier, so a
/// task counted as finished must have all its writes visible to the waiter.
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

/// Barrier reuse across many generations (paper §5.2 uses one barrier per
/// phase; the implementation is generation-counted so one object can gate
/// many rounds). Each participant increments before the barrier and checks
/// the full sum after it; a second Wait() per round keeps the check phase
/// from racing with the next round's increments.
TEST(BarrierStressTest, MultiGenerationReuse) {
  constexpr int kParticipants = 4;
  constexpr int kGenerations = 200;
  ThreadPool pool(kParticipants);
  Barrier barrier(kParticipants);
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> mismatches{0};
  for (int p = 0; p < kParticipants; ++p) {
    pool.Submit([&barrier, &sum, &mismatches] {
      for (int gen = 1; gen <= kGenerations; ++gen) {
        sum.fetch_add(1, std::memory_order_relaxed);
        barrier.Wait();  // everyone incremented for this generation
        if (sum.load(std::memory_order_relaxed) !=
            int64_t{gen} * kParticipants) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        barrier.Wait();  // everyone checked; next generation may start
      }
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(sum.load(), int64_t{kGenerations} * kParticipants);
}

/// A Barrier sized 1 degenerates to a no-op and must never block.
TEST(BarrierStressTest, SingleParticipant) {
  Barrier barrier(1);
  for (int i = 0; i < 1000; ++i) barrier.Wait();
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

/// Concurrent ModelJoin shared-model builds: every partition thread parses
/// its slice into the shared weight matrices and rendezvouses on the build
/// barrier. Repeated rounds catch generation/reuse races in the barriers.
TEST(SharedModelStressTest, ConcurrentBuildRounds) {
  auto model_or = nn::MakeDenseBenchmarkModel(/*width=*/12, /*depth=*/3, 7);
  ASSERT_TRUE(model_or.ok());
  nn::Model model = std::move(model_or).ValueOrDie();
  mltosql::MlToSql framework(&model, "m");
  auto table_or = framework.BuildModelTable();
  ASSERT_TRUE(table_or.ok());
  storage::TablePtr table = std::move(table_or).ValueOrDie();
  auto cpu = device::MakeCpuDevice();

  constexpr int kPartitions = 5;
  ThreadPool pool(kPartitions);
  for (int round = 0; round < 10; ++round) {
    modeljoin::SharedModel shared(nn::MetaOf(model, "m"), cpu.get(),
                                  kPartitions, 256);
    std::vector<Status> statuses(kPartitions);
    for (int p = 0; p < kPartitions; ++p) {
      pool.Submit([&shared, &table, &statuses, p] {
        statuses[static_cast<size_t>(p)] = shared.BuildPartition(*table, p);
      });
    }
    pool.WaitIdle();
    for (const Status& s : statuses) ASSERT_OK(s);
    // Spot-check: all partitions' writes are visible after the barrier.
    const nn::DenseLayer& dense = model.layers()[0].dense;
    const float* w = shared.dense_kernel(0);
    for (int64_t in = 0; in < dense.input_dim; ++in) {
      for (int64_t out = 0; out < dense.units; ++out) {
        ASSERT_FLOAT_EQ(w[out * dense.input_dim + in],
                        dense.kernel.At(in, out));
      }
    }
  }
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
