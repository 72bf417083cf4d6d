#include "inference/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "benchlib/workloads.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "device/device.h"
#include "exec/profile.h"
#include "inference/batcher.h"
#include "inference/cache.h"
#include "mltosql/mltosql.h"
#include "modeljoin/register.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "sql/query_engine.h"
#include "test_util.h"

// Heap accounting for the cache's byte-bound test: while a thread sets
// `counting`, its own new/delete calls adjust `live_bytes` by the block
// sizes (every block carries its size in a 16-byte prefix). Every
// non-aligned form is replaced, so no block crosses allocators.
namespace alloc_count {
thread_local bool counting = false;
thread_local int64_t live_bytes = 0;
}  // namespace alloc_count

void* operator new(size_t size) {
  void* base = std::malloc(size + 16);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(base) = size;
  if (alloc_count::counting) alloc_count::live_bytes += static_cast<int64_t>(size);
  return static_cast<char*>(base) + 16;
}
void* operator new[](size_t size) { return operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - 16;
  if (alloc_count::counting) {
    alloc_count::live_bytes -= static_cast<int64_t>(*reinterpret_cast<size_t*>(base));
  }
  std::free(base);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, size_t) noexcept { operator delete(p); }
void operator delete[](void* p, size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace indbml {
namespace {

using inference::InferenceBatcher;
using inference::InferenceCache;
using inference::InferenceCallStats;
using inference::InferenceOptions;
using inference::InferenceRuntime;
using inference::SharedModel;

/// Builds a SharedModel from a generated benchmark model via its table form
/// (the same path the native ModelJoin takes).
std::shared_ptr<SharedModel> BuildShared(const nn::Model& model,
                                         device::Device* device,
                                         int vector_size = 1024) {
  mltosql::MlToSql framework(const_cast<nn::Model*>(&model), "m");
  auto table = framework.BuildModelTable();
  INDBML_CHECK(table.ok()) << table.status().ToString();
  auto shared = SharedModel::FromTable(nn::MetaOf(model, "m"), device,
                                       vector_size, *table.ValueOrDie(),
                                       /*pool=*/nullptr);
  INDBML_CHECK(shared.ok()) << shared.status().ToString();
  return std::move(shared).ValueOrDie();
}

/// Random feature-major input matrix [d x n].
std::vector<float> RandomInput(int64_t d, int64_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> in(static_cast<size_t>(d * n));
  for (float& v : in) v = dist(rng);
  return in;
}

/// Extracts columns [j0, j0+sn) of a feature-major [d x n] matrix into a
/// dense [d x sn] slice — what a selection-compacted operator chunk looks
/// like to the batcher.
std::vector<float> Slice(const std::vector<float>& in, int64_t d, int64_t n,
                         int64_t j0, int64_t sn) {
  std::vector<float> out(static_cast<size_t>(d * sn));
  for (int64_t f = 0; f < d; ++f) {
    std::memcpy(out.data() + f * sn, in.data() + f * n + j0,
                static_cast<size_t>(sn) * sizeof(float));
  }
  return out;
}

class InferenceRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cpu_ = device::MakeCpuDevice();
    InferenceCache::Global().Clear();
  }
  void TearDown() override {
    InferenceCache::Global().Clear();
    InferenceCache::Global().set_capacity_bytes(32 << 20);
  }
  std::unique_ptr<device::Device> cpu_;
};

// ---------------------------------------------------------------------------
// Bit-identity: coalesced launches vs. per-slice launches. The batcher and
// the cache both rest on this property (column-independent kernels).
// ---------------------------------------------------------------------------

void CheckBatchedMatchesUnbatched(const nn::Model& model, device::Device* cpu,
                                  uint64_t seed) {
  auto shared = BuildShared(model, cpu, 256);
  const int64_t d = model.input_width();
  const int64_t o = model.output_dim();
  // Uneven odd-sized slices straddling the vector size, as selections
  // produce: 300 + 17 + 511 + 172 = 1000 rows.
  const int64_t n = 1000;
  const int64_t sizes[] = {300, 17, 511, 172};
  auto in = RandomInput(d, n, seed);

  std::vector<float> reference(static_cast<size_t>(o * n));
  ASSERT_OK(InferenceRuntime::Global().Run(*shared, in.data(), n,
                                           reference.data()));

  // The same rows, submitted as concurrent per-slice calls through the
  // batcher with a wide-open window so they coalesce whenever the timing
  // allows (the property must hold whether or not they do).
  InferenceOptions opts;
  opts.batch_window_us = 20000;
  opts.max_batch_rows = 4096;
  std::vector<std::vector<float>> slice_in, slice_out;
  int64_t j0 = 0;
  for (int64_t sn : sizes) {
    slice_in.push_back(Slice(in, d, n, j0, sn));
    slice_out.emplace_back(static_cast<size_t>(o * sn));
    j0 += sn;
  }
  std::vector<std::thread> threads;
  std::vector<Status> statuses(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      statuses[static_cast<size_t>(t)] = InferenceBatcher::Global().Run(
          shared, slice_in[static_cast<size_t>(t)].data(), sizes[t],
          slice_out[static_cast<size_t>(t)].data(), opts, nullptr, nullptr);
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : statuses) ASSERT_OK(s);

  j0 = 0;
  for (size_t t = 0; t < 4; ++t) {
    for (int64_t p = 0; p < o; ++p) {
      for (int64_t j = 0; j < sizes[t]; ++j) {
        float batched = slice_out[t][static_cast<size_t>(p * sizes[t] + j)];
        float expected = reference[static_cast<size_t>(p * n + j0 + j)];
        // Bit-exact, not approximate: memcmp through the float bits.
        ASSERT_EQ(0, std::memcmp(&batched, &expected, sizeof(float)))
            << "slice " << t << " output " << p << " row " << j << ": "
            << batched << " vs " << expected;
      }
    }
    j0 += sizes[t];
  }
}

TEST_F(InferenceRuntimeTest, BatchedMatchesUnbatchedDense) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 7));
  CheckBatchedMatchesUnbatched(model, cpu_.get(), 11);
}

TEST_F(InferenceRuntimeTest, BatchedMatchesUnbatchedLstm) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeLstmBenchmarkModel(12, 3, 9));
  CheckBatchedMatchesUnbatched(model, cpu_.get(), 13);
}

TEST_F(InferenceRuntimeTest, BatchedMatchesUnbatchedGru) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeGruBenchmarkModel(12, 3, 9));
  CheckBatchedMatchesUnbatched(model, cpu_.get(), 17);
}

// Blocking at the vector size: n far above vector_size runs in blocks that
// each match a direct single-block pass.
TEST_F(InferenceRuntimeTest, RunBlocksAtVectorSize) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 3));
  auto shared = BuildShared(model, cpu_.get(), 128);
  const int64_t d = model.input_width();
  const int64_t o = model.output_dim();
  const int64_t n = 1000;  // 7 full blocks of 128 + a 104-row tail
  auto in = RandomInput(d, n, 5);
  std::vector<float> big(static_cast<size_t>(o * n));
  ASSERT_OK(InferenceRuntime::Global().Run(*shared, in.data(), n, big.data()));
  for (int64_t j0 = 0; j0 < n; j0 += 128) {
    int64_t bn = std::min<int64_t>(128, n - j0);
    auto block = Slice(in, d, n, j0, bn);
    std::vector<float> out(static_cast<size_t>(o * bn));
    ASSERT_OK(
        InferenceRuntime::Global().Run(*shared, block.data(), bn, out.data()));
    for (int64_t p = 0; p < o; ++p) {
      for (int64_t j = 0; j < bn; ++j) {
        ASSERT_EQ(out[static_cast<size_t>(p * bn + j)],
                  big[static_cast<size_t>(p * n + j0 + j)]);
      }
    }
  }
}

// FromModel (the mlruntime path) must produce the same weights — and
// therefore bit-identical predictions — as the model-table build.
TEST_F(InferenceRuntimeTest, FromModelMatchesFromTable) {
  for (auto make : {&nn::MakeLstmBenchmarkModel, &nn::MakeGruBenchmarkModel}) {
    ASSERT_OK_AND_ASSIGN(nn::Model model, make(8, 3, 19));
    auto from_table = BuildShared(model, cpu_.get(), 256);
    ASSERT_OK_AND_ASSIGN(auto from_model,
                         SharedModel::FromModel(nn::MetaOf(model, "m"),
                                                cpu_.get(), 256, model));

    const int64_t d = model.input_width();
    const int64_t o = model.output_dim();
    const int64_t n = 200;
    auto in = RandomInput(d, n, 23);
    std::vector<float> a(static_cast<size_t>(o * n)), b(a);
    ASSERT_OK(InferenceRuntime::Global().Run(*from_table, in.data(), n, a.data()));
    ASSERT_OK(InferenceRuntime::Global().Run(*from_model, in.data(), n, b.data()));
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------------

TEST_F(InferenceRuntimeTest, CacheHitsSkipTheRuntimeAndAreExact) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 3, 7));
  auto shared = BuildShared(model, cpu_.get());
  const int64_t d = model.input_width();
  const int64_t o = model.output_dim();
  const int64_t n = 100;
  auto in = RandomInput(d, n, 31);

  InferenceOptions opts;
  opts.use_cache = true;
  std::vector<float> first(static_cast<size_t>(o * n));
  InferenceCallStats stats1;
  ASSERT_OK(InferenceBatcher::Global().Run(shared, in.data(), n, first.data(),
                                           opts, nullptr, &stats1));
  EXPECT_EQ(stats1.cache_hits, 0);

  std::vector<float> second(static_cast<size_t>(o * n), -99.0f);
  InferenceCallStats stats2;
  ASSERT_OK(InferenceBatcher::Global().Run(shared, in.data(), n, second.data(),
                                           opts, nullptr, &stats2));
  EXPECT_EQ(stats2.cache_hits, n);  // every row answered without the NN
  for (size_t i = 0; i < first.size(); ++i) ASSERT_EQ(first[i], second[i]);

  // Partial overlap: half old rows, half new → exactly n/2 hits, and the
  // scattered mix still matches a fresh full run.
  auto in2 = RandomInput(d, n, 32);
  std::vector<float> mixed_in(static_cast<size_t>(d * n));
  for (int64_t f = 0; f < d; ++f) {
    for (int64_t j = 0; j < n; ++j) {
      mixed_in[static_cast<size_t>(f * n + j)] =
          (j % 2 == 0) ? in[static_cast<size_t>(f * n + j)]
                       : in2[static_cast<size_t>(f * n + j)];
    }
  }
  std::vector<float> mixed_out(static_cast<size_t>(o * n));
  InferenceCallStats stats3;
  ASSERT_OK(InferenceBatcher::Global().Run(shared, mixed_in.data(), n,
                                           mixed_out.data(), opts, nullptr,
                                           &stats3));
  EXPECT_EQ(stats3.cache_hits, n / 2);
  std::vector<float> mixed_ref(static_cast<size_t>(o * n));
  ASSERT_OK(InferenceRuntime::Global().Run(*shared, mixed_in.data(), n,
                                           mixed_ref.data()));
  for (size_t i = 0; i < mixed_out.size(); ++i) {
    ASSERT_EQ(mixed_out[i], mixed_ref[i]);
  }
}

/// Eviction is CLOCK inside 8-way sets; with no lookups to set reference
/// bits it is first-in first-out per set.
TEST_F(InferenceRuntimeTest, CacheEvictsToCapacityOldestFirst) {
  InferenceCache& cache = InferenceCache::Global();
  cache.set_capacity_bytes(4096);
  const int64_t d = 4, o = 1, n = 1;
  float out[1];
  for (int64_t i = 0; i < 1000; ++i) {
    float in[4] = {static_cast<float>(i), 1.0f, 2.0f, 3.0f};
    float result[1] = {static_cast<float>(i) * 2.0f};
    cache.Insert(/*model_id=*/777, in, n, d, o, result);
  }
  auto stats = cache.GetStats();
  EXPECT_LE(stats.bytes, 4096);
  EXPECT_GT(stats.entries, 0);
  // The most recent insert survived; the oldest was evicted.
  float newest[4] = {999.0f, 1.0f, 2.0f, 3.0f};
  std::vector<char> hits(1, 0);
  EXPECT_EQ(cache.Lookup(777, newest, n, d, o, out, &hits), 1);
  EXPECT_EQ(out[0], 1998.0f);
  float oldest[4] = {0.0f, 1.0f, 2.0f, 3.0f};
  hits.assign(1, 0);
  EXPECT_EQ(cache.Lookup(777, oldest, n, d, o, out, &hits), 0);
}

TEST_F(InferenceRuntimeTest, CacheInvalidateModelDropsOnlyThatModel) {
  InferenceCache& cache = InferenceCache::Global();
  float in[2] = {1.0f, 2.0f};
  float r1[1] = {10.0f}, r2[1] = {20.0f};
  cache.Insert(1, in, 1, 2, 1, r1);
  cache.Insert(2, in, 1, 2, 1, r2);
  cache.InvalidateModel(1);
  float out[1];
  std::vector<char> hits(1, 0);
  EXPECT_EQ(cache.Lookup(1, in, 1, 2, 1, out, &hits), 0);
  hits.assign(1, 0);
  EXPECT_EQ(cache.Lookup(2, in, 1, 2, 1, out, &hits), 1);
  EXPECT_EQ(out[0], 20.0f);
}

TEST_F(InferenceRuntimeTest, CacheCapacityZeroDisables) {
  InferenceCache& cache = InferenceCache::Global();
  cache.set_capacity_bytes(0);
  float in[2] = {1.0f, 2.0f};
  float r[1] = {10.0f};
  cache.Insert(5, in, 1, 2, 1, r);
  float out[1];
  std::vector<char> hits(1, 0);
  EXPECT_EQ(cache.Lookup(5, in, 1, 2, 1, out, &hits), 0);
  EXPECT_EQ(cache.GetStats().entries, 0);
}

/// The feature-major [4 x count] matrix of the tuples {k, k % 7, k % 3, -k}
/// for k in [first, first + count).
std::vector<float> CountingTuples(int64_t first, int64_t count) {
  std::vector<float> in(static_cast<size_t>(4 * count));
  for (int64_t j = 0; j < count; ++j) {
    const int64_t k = first + j;
    in[static_cast<size_t>(j)] = static_cast<float>(k);
    in[static_cast<size_t>(count + j)] = static_cast<float>(k % 7);
    in[static_cast<size_t>(2 * count + j)] = static_cast<float>(k % 3);
    in[static_cast<size_t>(3 * count + j)] = -static_cast<float>(k);
  }
  return in;
}

/// The value cached for tuple k under `model`.
float CountingValue(int64_t model, int64_t k) {
  return static_cast<float>(k) * 2 + static_cast<float>(model);
}

void InsertCounting(InferenceCache* cache, int64_t model, int64_t first,
                    int64_t count) {
  std::vector<float> values(static_cast<size_t>(count));
  for (int64_t j = 0; j < count; ++j) {
    values[static_cast<size_t>(j)] = CountingValue(model, first + j);
  }
  cache->Insert(model, CountingTuples(first, count).data(), count, 4, 1,
                values.data());
}

/// Hits among the tuples InsertCounting(model, first, count) inserts; each
/// hit's value is checked.
int64_t LookupCounting(InferenceCache* cache, int64_t model, int64_t first,
                       int64_t count) {
  std::vector<float> out(static_cast<size_t>(count));
  std::vector<char> hits(static_cast<size_t>(count), 0);
  const int64_t hit_count = cache->Lookup(
      model, CountingTuples(first, count).data(), count, 4, 1, out.data(), &hits);
  for (int64_t j = 0; j < count; ++j) {
    if (hits[static_cast<size_t>(j)] != 0) {
      EXPECT_EQ(out[static_cast<size_t>(j)], CountingValue(model, first + j));
    }
  }
  return hit_count;
}

float FloatFromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Looks up one tuple; returns whether it hit and writes the value bits.
bool LookupOne(InferenceCache* cache, int64_t model, const float* in, int64_t d,
               uint32_t* bits) {
  float out[1];
  std::vector<char> hits(1, 0);
  if (cache->Lookup(model, in, 1, d, 1, out, &hits) == 0) return false;
  std::memcpy(bits, out, sizeof(*bits));
  return true;
}

TEST_F(InferenceRuntimeTest, CacheKeysAreByteExact) {
  InferenceCache cache;
  uint32_t bits = 0;
  // -0.0 and 0.0 compare equal as floats but are different keys.
  const float neg_zero[2] = {-0.0f, 1.0f};
  const float pos_zero[2] = {0.0f, 1.0f};
  const float v1[1] = {1.0f}, v2[1] = {2.0f};
  cache.Insert(1, neg_zero, 1, 2, 1, v1);
  EXPECT_FALSE(LookupOne(&cache, 1, pos_zero, 2, &bits));
  cache.Insert(1, pos_zero, 1, 2, 1, v2);
  ASSERT_TRUE(LookupOne(&cache, 1, neg_zero, 2, &bits));
  EXPECT_EQ(bits, 0x3F800000u);
  ASSERT_TRUE(LookupOne(&cache, 1, pos_zero, 2, &bits));
  EXPECT_EQ(bits, 0x40000000u);

  // Two NaN payloads are two keys, and a NaN value comes back bit for bit.
  const float nan_a[2] = {FloatFromBits(0x7FC00001u), 3.0f};
  const float nan_b[2] = {FloatFromBits(0x7FC00002u), 3.0f};
  const float nan_value[1] = {FloatFromBits(0x7FC0BEEFu)};
  cache.Insert(1, nan_a, 1, 2, 1, nan_value);
  EXPECT_FALSE(LookupOne(&cache, 1, nan_b, 2, &bits));
  ASSERT_TRUE(LookupOne(&cache, 1, nan_a, 2, &bits));
  EXPECT_EQ(bits, 0x7FC0BEEFu);

  // The same tuple under two model ids is two entries.
  const float tuple[2] = {5.0f, 6.0f};
  const float ten[1] = {10.0f}, twenty[1] = {20.0f};
  cache.Insert(1, tuple, 1, 2, 1, ten);
  EXPECT_FALSE(LookupOne(&cache, 2, tuple, 2, &bits));
  cache.Insert(2, tuple, 1, 2, 1, twenty);
  ASSERT_TRUE(LookupOne(&cache, 1, tuple, 2, &bits));
  EXPECT_EQ(FloatFromBits(bits), 10.0f);
  ASSERT_TRUE(LookupOne(&cache, 2, tuple, 2, &bits));
  EXPECT_EQ(FloatFromBits(bits), 20.0f);
}

TEST_F(InferenceRuntimeTest, CacheHoldsModelsOfDifferentWidths) {
  InferenceCache cache;
  const int64_t n = 50;
  struct Shape {
    int64_t model, d, o;
  };
  const Shape shapes[] = {{21, 2, 1}, {22, 7, 3}};
  for (const Shape& s : shapes) {
    auto in = RandomInput(s.d, n, static_cast<uint64_t>(s.model));
    auto values = RandomInput(s.o, n, static_cast<uint64_t>(s.model) + 100);
    cache.Insert(s.model, in.data(), n, s.d, s.o, values.data());
  }
  for (const Shape& s : shapes) {
    auto in = RandomInput(s.d, n, static_cast<uint64_t>(s.model));
    auto values = RandomInput(s.o, n, static_cast<uint64_t>(s.model) + 100);
    std::vector<float> out(static_cast<size_t>(s.o * n));
    std::vector<char> hits(static_cast<size_t>(n), 0);
    ASSERT_EQ(cache.Lookup(s.model, in.data(), n, s.d, s.o, out.data(), &hits), n);
    EXPECT_EQ(0, std::memcmp(out.data(), values.data(), out.size() * sizeof(float)));
    // The wrong shape for a model is a miss, never a misread slot.
    std::vector<char> none(static_cast<size_t>(n), 0);
    std::vector<float> wide(static_cast<size_t>((s.o + 1) * n));
    EXPECT_EQ(cache.Lookup(s.model, in.data(), n, s.d, s.o + 1, wide.data(), &none), 0);
  }
  EXPECT_EQ(cache.GetStats().entries, 2 * n);
}

/// GetStats().bytes is what the cache really allocates, within its capacity;
/// only the per-model map entry (node, bucket array, shared_ptr control
/// block) is outside it.
TEST_F(InferenceRuntimeTest, CacheBytesAreWhatItAllocates) {
  InferenceCache cache;
  cache.set_capacity_bytes(1 << 20);
  alloc_count::live_bytes = 0;
  alloc_count::counting = true;
  for (int64_t first = 0; first < 100'000; first += 1000) {
    InsertCounting(&cache, 1, first, 1000);
  }
  alloc_count::counting = false;
  const InferenceCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, 1 << 20);
  EXPECT_GT(stats.bytes, (1 << 20) * 9 / 10);  // the one model gets it all
  EXPECT_GE(alloc_count::live_bytes, stats.bytes);
  EXPECT_LE(alloc_count::live_bytes, stats.bytes + 512);

  // Freeing: invalidation returns the model's bytes.
  alloc_count::live_bytes = 0;
  alloc_count::counting = true;
  cache.InvalidateModel(1);
  alloc_count::counting = false;
  EXPECT_EQ(cache.GetStats().bytes, 0);
  EXPECT_LE(alloc_count::live_bytes, -stats.bytes);
}

/// At the serving default (32 MB) a 4-feature, 1-output model keeps at
/// least 1 198 372 entries: what the list-and-string LRU it replaced held
/// when it counted only 28 key and value bytes per entry.
TEST_F(InferenceRuntimeTest, CacheDefaultCapacityHoldsTheOldEntryCount) {
  InferenceCache cache;
  cache.set_capacity_bytes(32 << 20);
  for (int64_t first = 0; first < 2'000'000; first += 8192) {
    InsertCounting(&cache, 1, first, 8192);
  }
  const InferenceCache::Stats stats = cache.GetStats();
  EXPECT_GE(stats.entries, 1'198'372);
  EXPECT_LE(stats.bytes, 32 << 20);
}

TEST_F(InferenceRuntimeTest, CacheGivesANewModelRoom) {
  InferenceCache cache;
  cache.set_capacity_bytes(256 << 10);
  for (int64_t first = 0; first < 100'000; first += 1000) {
    InsertCounting(&cache, 1, first, 1000);
  }
  const int64_t alone = cache.GetStats().entries;
  InsertCounting(&cache, 2, 0, 500);
  EXPECT_EQ(LookupCounting(&cache, 2, 0, 500), 500);
  // Model 1 shrank to an equal share but kept entries in it.
  EXPECT_GT(LookupCounting(&cache, 1, 99'000, 1000), 0);
  const InferenceCache::Stats stats = cache.GetStats();
  EXPECT_LT(stats.entries, alone + 500);
  EXPECT_LE(stats.bytes, 256 << 10);
}

TEST_F(InferenceRuntimeTest, CacheInvalidateModelFreesItsBytes) {
  InferenceCache cache;
  cache.set_capacity_bytes(64 << 10);
  InsertCounting(&cache, 1, 0, 100);
  const int64_t one = cache.GetStats().bytes;
  InsertCounting(&cache, 2, 0, 100);
  const int64_t two = cache.GetStats().bytes;
  EXPECT_LE(two, 64 << 10);
  cache.InvalidateModel(1);
  EXPECT_LT(cache.GetStats().bytes, two);
  EXPECT_LE(cache.GetStats().bytes, one);
  EXPECT_EQ(LookupCounting(&cache, 1, 0, 100), 0);
  EXPECT_EQ(LookupCounting(&cache, 2, 0, 100), 100);
  cache.InvalidateModel(2);
  EXPECT_EQ(cache.GetStats().bytes, 0);
  EXPECT_EQ(cache.GetStats().entries, 0);
}

/// A table grows with the rows inserted into it, not to its share at once:
/// a query-sized model allocates a query-sized table, and keeps every row.
TEST_F(InferenceRuntimeTest, CacheTableGrowsWithItsRows) {
  InferenceCache cache;
  cache.set_capacity_bytes(32 << 20);
  InsertCounting(&cache, 1, 0, 256);
  const int64_t small = cache.GetStats().bytes;
  EXPECT_LE(small, 64 << 10);
  EXPECT_EQ(LookupCounting(&cache, 1, 0, 256), 256);
  for (int64_t first = 256; first < 20'480; first += 256) {
    InsertCounting(&cache, 1, first, 256);
  }
  EXPECT_GT(cache.GetStats().bytes, small);
  EXPECT_EQ(cache.GetStats().entries, 20'480);
  EXPECT_EQ(LookupCounting(&cache, 1, 0, 20'480), 20'480);
}

/// The share a model gives up to a second one comes back once the second is
/// invalidated: the survivor's next growth takes the whole capacity again.
TEST_F(InferenceRuntimeTest, CacheFreedShareReturnsToTheSurvivor) {
  InferenceCache cache;
  const int64_t capacity = 256 << 10;
  cache.set_capacity_bytes(capacity);
  for (int64_t first = 0; first < 100'000; first += 1000) {
    InsertCounting(&cache, 1, first, 1000);
  }
  const int64_t alone = cache.GetStats().bytes;
  EXPECT_GT(alone, capacity * 9 / 10);
  InsertCounting(&cache, 2, 0, 500);
  EXPECT_LE(cache.GetStats().bytes, capacity);
  EXPECT_EQ(cache.GetStats().tables, 2);
  cache.InvalidateModel(2);
  EXPECT_LE(cache.GetStats().bytes, capacity / 2);
  for (int64_t first = 100'000; first < 120'000; first += 1000) {
    InsertCounting(&cache, 1, first, 1000);
  }
  EXPECT_EQ(cache.GetStats().bytes, alone);
  EXPECT_EQ(cache.GetStats().tables, 1);
}

/// The batcher reports the cache lookup as a span of its own and in
/// InferenceCallStats::lookup_nanos, separate from the forward pass.
TEST_F(InferenceRuntimeTest, BatcherSpansSplitCacheFromCompute) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 5));
  auto shared = BuildShared(model, cpu_.get());
  const int64_t n = 64;
  auto in = RandomInput(model.input_width(), n, 9);
  std::vector<float> out(static_cast<size_t>(model.output_dim() * n));
  InferenceOptions opts;
  opts.use_cache = true;
  trace::Clear();
  trace::Start();
  InferenceCallStats miss, hit;
  ASSERT_OK(InferenceBatcher::Global().Run(shared, in.data(), n, out.data(), opts,
                                           nullptr, &miss));
  ASSERT_OK(InferenceBatcher::Global().Run(shared, in.data(), n, out.data(), opts,
                                           nullptr, &hit));
  trace::Stop();
  const std::string json = trace::ToJson();
  trace::Clear();
  EXPECT_NE(json.find("\"inference.cache_lookup\""), std::string::npos);
  EXPECT_NE(json.find("\"inference.run\""), std::string::npos);
  EXPECT_NE(json.find("\"inference.cache_insert\""), std::string::npos);
  EXPECT_GT(miss.lookup_nanos, 0);
  EXPECT_GT(hit.lookup_nanos, 0);
  EXPECT_EQ(hit.cache_hits, n);
}

/// EXPLAIN ANALYZE of a cached ModelJoin shows the lookup as a phase of its
/// own, so `inference` is the forward pass alone.
TEST_F(InferenceRuntimeTest, ExplainAnalyzeShowsCacheLookupPhase) {
  sql::QueryEngine::Options options;
  options.inference.result_cache = true;
  sql::QueryEngine engine(options);
  modeljoin::RegisterNativeModelJoin(&engine);
  ASSERT_OK(engine.catalog()->CreateTable(benchlib::MakeIrisTable("fact", 2000)));
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(16, 2, 4));
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK(framework.Deploy(&engine));
  engine.models()->Register(nn::MetaOf(model, "mm"));
  const std::string sql =
      "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'mm' "
      "DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
      "petal_width)";
  exec::QueryProfile profile;
  ASSERT_OK_AND_ASSIGN(auto result, engine.ExecuteQuery(sql, &profile));
  EXPECT_EQ(result.num_rows, 2000);
  int modeljoin_node = -1;
  for (int node = 0; node < profile.num_nodes(); ++node) {
    if (profile.node_label(node).find("ModelJoin") != std::string::npos) {
      modeljoin_node = node;
    }
  }
  ASSERT_GE(modeljoin_node, 0);
  const exec::OperatorStats stats = profile.Aggregate(modeljoin_node);
  EXPECT_GT(stats.phase_nanos.at("cache_lookup"), 0);
  EXPECT_GT(stats.phase_nanos.at("inference"), 0);
  ASSERT_OK_AND_ASSIGN(std::string text, engine.ExplainAnalyze(sql));
  EXPECT_NE(text.find("cache_lookup="), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Cancellation: interrupting calls blocked in batcher waits returns them
// promptly — far inside the 2-second window they would otherwise sit out.
// ---------------------------------------------------------------------------

TEST_F(InferenceRuntimeTest, InterruptedWaitersReturnPromptly) {
  ASSERT_OK_AND_ASSIGN(nn::Model model, nn::MakeDenseBenchmarkModel(8, 2, 3));
  auto shared = BuildShared(model, cpu_.get());
  const int64_t d = model.input_width();
  const int64_t o = model.output_dim();
  InferenceOptions opts;
  opts.batch_window_us = 2'000'000;  // a wedge would cost 2 s per launch

  constexpr int kThreads = 4;
  std::atomic<bool> interrupt{false};
  auto in = RandomInput(d, 64 * kThreads, 41);
  std::vector<std::vector<float>> outs(kThreads,
                                       std::vector<float>(static_cast<size_t>(o * 64)));
  std::vector<Status> statuses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      statuses[static_cast<size_t>(t)] = InferenceBatcher::Global().Run(
          shared, in.data() + t * 64, 64, outs[static_cast<size_t>(t)].data(),
          opts, &interrupt, nullptr);
    });
  }
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  interrupt.store(true, std::memory_order_release);
  InferenceBatcher::Global().KickWaiters();
  for (auto& t : threads) t.join();
  // Every call returned — leaders launched despite the interrupt, followers
  // either rode the launch or detached with Cancelled — well inside the
  // window they were prepared to wait.
  EXPECT_LT(watch.ElapsedMicros(), 1'500'000);
  for (const Status& s : statuses) {
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kCancelled) << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// End-to-end through SQL: a filtered ModelJoin under the serving defaults
// (batching + cache on) returns bit-identical predictions to the plain
// engine path, for every model family.
// ---------------------------------------------------------------------------

void CheckSqlBatchingAblation(const char* family) {
  auto make_engine = [&](bool serving_knobs) {
    sql::QueryEngine::Options options;
    if (serving_knobs) {
      options.inference.batch_window_us = 200;
      options.inference.max_batch_rows = 4096;
      options.inference.result_cache = true;
    }
    auto engine = std::make_unique<sql::QueryEngine>(options);
    modeljoin::RegisterNativeModelJoin(engine.get());
    return engine;
  };

  std::string sql;
  nn::Model model;
  storage::TablePtr fact;
  if (std::string(family) == "dense") {
    fact = benchlib::MakeIrisTable("fact", 4000);
    ASSERT_OK_AND_ASSIGN(model, nn::MakeDenseBenchmarkModel(16, 3, 21));
    sql =
        "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'mm' "
        "DEVICE 'cpu' PREDICT (sepal_length, sepal_width, petal_length, "
        "petal_width) WHERE sepal_length > 5.0 ORDER BY id";
  } else {
    fact = benchlib::MakeSinusTable("fact", 3000, 3);
    if (std::string(family) == "lstm") {
      ASSERT_OK_AND_ASSIGN(model, nn::MakeLstmBenchmarkModel(12, 3, 33));
    } else {
      ASSERT_OK_AND_ASSIGN(model, nn::MakeGruBenchmarkModel(12, 3, 33));
    }
    sql =
        "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL 'mm' "
        "DEVICE 'cpu' PREDICT (x0, x1, x2) WHERE x0 > 0.0 ORDER BY id";
  }

  exec::QueryResult results[2];
  for (int pass = 0; pass < 2; ++pass) {
    auto engine = make_engine(pass == 1);
    ASSERT_OK(engine->catalog()->CreateTable(fact));
    mltosql::MlToSql framework(&model, "m");
    ASSERT_OK(framework.Deploy(engine.get()));
    engine->models()->Register(nn::MetaOf(model, "mm"));
    ASSERT_OK_AND_ASSIGN(results[pass], engine->ExecuteQuery(sql));
  }
  ASSERT_EQ(results[0].num_rows, results[1].num_rows);
  ASSERT_GT(results[0].num_rows, 0);
  ASSERT_OK_AND_ASSIGN(int pred_col, results[0].ColumnIndex("prediction"));
  for (int64_t r = 0; r < results[0].num_rows; ++r) {
    float plain = results[0].GetValue(r, pred_col).f;
    float served = results[1].GetValue(r, pred_col).f;
    ASSERT_EQ(0, std::memcmp(&plain, &served, sizeof(float)))
        << family << " row " << r << ": " << plain << " vs " << served;
  }
}

TEST_F(InferenceRuntimeTest, SqlServingKnobsBitIdenticalDense) {
  CheckSqlBatchingAblation("dense");
}

TEST_F(InferenceRuntimeTest, SqlServingKnobsBitIdenticalLstm) {
  CheckSqlBatchingAblation("lstm");
}

TEST_F(InferenceRuntimeTest, SqlServingKnobsBitIdenticalGru) {
  CheckSqlBatchingAblation("gru");
}

}  // namespace
}  // namespace indbml
