#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <tuple>
#include <vector>

#include "inputs.h"
#include "stats.h"

namespace perfbench {
namespace {

using Tuple = std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>;

uint32_t Bits(float f) {
  uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

TEST(UniqueFactTable, EveryFeatureTupleIsDistinct) {
  constexpr int64_t kRows = 1 << 16;
  auto table = MakeUniqueFactTable("t", kRows, 4, "f", 7);
  ASSERT_EQ(table->num_rows(), kRows);
  std::set<Tuple> tuples;
  for (int64_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(table->column(0).GetInt64(r), r);
    tuples.insert({Bits(table->column(1).GetFloat(r)), Bits(table->column(2).GetFloat(r)),
                   Bits(table->column(3).GetFloat(r)), Bits(table->column(4).GetFloat(r))});
  }
  EXPECT_EQ(static_cast<int64_t>(tuples.size()), kRows);
}

TEST(UniqueFactTable, KeyFeatureIsUniqueAtTheLargestSize) {
  // Distinctness must survive float rounding at the largest table the
  // serving workload uses, not just at test scale.
  constexpr int64_t kRows = 4194304;
  auto table = MakeUniqueFactTable("t", kRows, 1, "x", 3);
  std::vector<float> keys(table->column(1).float_data(),
                          table->column(1).float_data() + kRows);
  std::sort(keys.begin(), keys.end());
  EXPECT_TRUE(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
}

TEST(UniqueFactTable, SameSeedSameTableOtherSeedOtherTable) {
  auto a = MakeUniqueFactTable("a", 1000, 3, "x", 11);
  auto b = MakeUniqueFactTable("b", 1000, 3, "x", 11);
  auto c = MakeUniqueFactTable("c", 1000, 3, "x", 12);
  int differing = 0;
  for (int64_t r = 0; r < 1000; ++r) {
    for (int col = 1; col <= 3; ++col) {
      EXPECT_EQ(Bits(a->column(col).GetFloat(r)), Bits(b->column(col).GetFloat(r)));
      if (Bits(a->column(col).GetFloat(r)) != Bits(c->column(col).GetFloat(r))) ++differing;
    }
  }
  EXPECT_GT(differing, 2900);
}

TEST(ZipfEntitySampler, FrequenciesFollowZipf) {
  ZipfEntitySampler sampler(1024, 1.0, 5);
  indbml::Random rng(9);
  constexpr int kDraws = 400000;
  std::vector<int> count(1024, 0);
  for (int i = 0; i < kDraws; ++i) ++count[static_cast<size_t>(sampler.Next(&rng))];
  // P(rank r) = (1 / (r + 1)) / H_1024.
  double harmonic = 0;
  for (int r = 1; r <= 1024; ++r) harmonic += 1.0 / r;
  for (int rank : {0, 1, 3, 9}) {
    const double want = 1.0 / (rank + 1) / harmonic;
    const double got =
        static_cast<double>(count[static_cast<size_t>(sampler.EntityOfRank(rank))]) / kDraws;
    EXPECT_NEAR(got, want, 4 * std::sqrt(want / kDraws)) << "rank " << rank;
  }
}

TEST(ZipfEntitySampler, PermutationDecouplesRankFromPosition) {
  ZipfEntitySampler sampler(16384, 1.0, 1);
  std::vector<int64_t> entities;
  for (int64_t r = 0; r < sampler.entities(); ++r) entities.push_back(sampler.EntityOfRank(r));
  std::vector<int64_t> sorted = entities;
  std::sort(sorted.begin(), sorted.end());
  for (int64_t r = 0; r < sampler.entities(); ++r) ASSERT_EQ(sorted[static_cast<size_t>(r)], r);
  int fixed_points = 0;
  for (int64_t r = 0; r < 100; ++r) fixed_points += entities[static_cast<size_t>(r)] == r;
  EXPECT_LT(fixed_points, 5);
  EXPECT_NE(ZipfEntitySampler(16384, 1.0, 2).EntityOfRank(0), sampler.EntityOfRank(0));
}

TEST(ZipfEntitySampler, SameSeedSameStream) {
  ZipfEntitySampler sampler(16384, 1.0, 4);
  indbml::Random a(77), b(77);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(sampler.Next(&a), sampler.Next(&b));
}

TEST(TailRule, LeavesTenSamplesBeyond) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  const Tail tail = TailOf(values);
  ASSERT_TRUE(tail.defined);
  EXPECT_EQ(tail.samples, 100);
  EXPECT_EQ(tail.blocks, 1);
  EXPECT_DOUBLE_EQ(tail.value, 90);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(tail.percentile, 90);
}

TEST(TailRule, SmallestDefinedSample) {
  std::vector<double> values(11);
  for (int i = 0; i < 11; ++i) values[static_cast<size_t>(i)] = i;
  const Tail tail = TailOf(values);
  ASSERT_TRUE(tail.defined);
  EXPECT_DOUBLE_EQ(tail.value, 0);
  EXPECT_NEAR(tail.percentile, 100.0 / 11, 1e-12);
}

TEST(TailRule, UndefinedWithTenOrFewer) {
  EXPECT_FALSE(TailOf(std::vector<double>(10, 1.0)).defined);
  EXPECT_FALSE(TailOf({}).defined);
}

TEST(TailRule, CappedAtP99) {
  std::vector<double> values(100000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  const Tail tail = TailRule(values);
  EXPECT_DOUBLE_EQ(tail.value, 98999);  // rank 99000, 1000 samples beyond
  EXPECT_DOUBLE_EQ(tail.percentile, 99);
}

TEST(TailRule, BlockedTailIsTheMedianOfBlockTails) {
  // Ten blocks of 1000; block b holds b * 1000 + 0..999, so its p99 is
  // b * 1000 + 989. A stall that makes one block 100x slower moves only
  // that block's tail.
  std::vector<double> values;
  for (int b = 0; b < 10; ++b) {
    for (int i = 0; i < 1000; ++i) values.push_back(b * 1000 + i);
  }
  for (int i = 0; i < 1000; ++i) values[static_cast<size_t>(9000 + i)] *= 100;
  values.push_back(1e9);  // partial last block, dropped
  const Tail tail = TailOf(values);
  ASSERT_TRUE(tail.defined);
  EXPECT_EQ(tail.blocks, 10);
  EXPECT_EQ(tail.samples, 1000);
  EXPECT_DOUBLE_EQ(tail.percentile, 99);
  EXPECT_DOUBLE_EQ(tail.value, 0.5 * (4989 + 5989));
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(EntityQuerySql, FiltersInASubquery) {
  EXPECT_EQ(EntityQuerySql("events", {"f0", "f1"}, "m", "dense", 256, 512),
            "SELECT id, prediction FROM (SELECT id, f0, f1 FROM events WHERE id >= 256 "
            "AND id < 512) AS q MODEL JOIN m USING MODEL 'dense' DEVICE 'cpu' PREDICT "
            "(f0, f1)");
}

}  // namespace
}  // namespace perfbench
