#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "test_util.h"

namespace indbml {
namespace {

double benchmark_sink_ = 0;

// ---------- Status / Result ----------

TEST(StatusTest, CodesAndMessages) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = Status::InvalidArgument("bad input");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad input");
}

TEST(ResultTest, ValueAndError) {
  Result<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  EXPECT_TRUE(value.status().ok());

  Result<int> error = Status::NotFound("nope");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  INDBML_ASSIGN_OR_RETURN(int half, Half(x));
  INDBML_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_OK_AND_ASSIGN(int q, Quarter(8));
  EXPECT_EQ(q, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3, odd
}

// ---------- string utils ----------

TEST(StringUtilTest, Basics) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("aBc"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("Node_In", "node_in"));
  EXPECT_FALSE(EqualsIgnoreCase("node", "nodes"));
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(Trim("  x \t"), "x");
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

// ---------- random ----------

TEST(RandomTest, DeterministicPerSeed) {
  Random a(123);
  Random b(123);
  Random c(124);
  bool all_equal = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.NextUint64();
    if (va != b.NextUint64()) all_equal = false;
    if (va != c.NextUint64()) any_diff_c = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(RandomTest, RangesRespected) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    float f = rng.NextFloat(-2.0f, 3.0f);
    EXPECT_GE(f, -2.0f);
    EXPECT_LT(f, 3.0f);
    EXPECT_LT(rng.NextUint64(7), 7u);
  }
}

TEST(RandomTest, GaussianMoments) {
  Random rng(17);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// ---------- thread pool + barrier ----------

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] { ++done; });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 10);
}

// ParallelFor waits for its own tasks only. Thread A's task blocks on a
// latch in a 2-thread pool; thread B's ParallelFor must still return,
// instead of waiting for the whole pool to go idle.
TEST(ThreadPoolTest, ParallelForWaitsOnlyForItsOwnTasks) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::promise<void> a_started;
  std::thread a([&] {
    pool.ParallelFor(1, [&](int) {
      a_started.set_value();
      latch.wait();
    });
  });
  a_started.get_future().wait();

  std::atomic<bool> b_ran{false};
  std::promise<void> b_done;
  std::future<void> b_returned = b_done.get_future();
  std::thread b([&] {
    pool.ParallelFor(1, [&](int) { b_ran = true; });
    b_done.set_value();
  });
  const bool returned_while_blocked =
      b_returned.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  // Release A either way so both threads can be joined.
  release.set_value();
  a.join();
  b.join();
  EXPECT_TRUE(returned_while_blocked)
      << "ParallelFor waited for another thread's task";
  EXPECT_TRUE(b_ran.load());
}

// ---------- memory tracker ----------

TEST(MemoryTrackerTest, PeakSemantics) {
  MemoryTracker& tracker = MemoryTracker::Global();
  int64_t base = tracker.current_bytes();
  tracker.ResetPeak();
  tracker.Allocate(1000);
  tracker.Allocate(2000);
  tracker.Free(2500);
  EXPECT_EQ(tracker.current_bytes(), base + 500);
  EXPECT_GE(tracker.peak_bytes(), base + 3000);
  tracker.Free(500);
  tracker.ResetPeak();
  EXPECT_EQ(tracker.peak_bytes(), tracker.current_bytes());
}

TEST(MemoryTrackerTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.0 MB");
}

TEST(MemoryTrackerTest, RssReadable) { EXPECT_GT(ReadProcessRssBytes(), 0); }

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i * 0.5;
  benchmark_sink_ = sink;  // keep the loop observable
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMicros(), 0);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace indbml
