#include "inference/shared_model.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/config.h"
#include "common/thread_pool.h"

#include "mltosql/mltosql.h"
#include "nn/model_meta.h"
#include "test_util.h"

namespace indbml {
namespace {

using inference::SharedModel;

/// Direct tests of the parallel build phase (paper §5.2), including the
/// failure path where the first parse error must surface as the build's
/// status.
class SharedModelTest : public ::testing::Test {
 protected:
  void Build(int64_t width, int64_t depth) {
    auto model_or = nn::MakeDenseBenchmarkModel(width, depth, 7);
    ASSERT_TRUE(model_or.ok());
    model_ = std::move(model_or).ValueOrDie();
    mltosql::MlToSql framework(&model_, "m");
    auto table_or = framework.BuildModelTable();
    ASSERT_TRUE(table_or.ok());
    table_ = std::move(table_or).ValueOrDie();
  }

  nn::Model model_;
  storage::TablePtr table_;
};

TEST_F(SharedModelTest, SinglePartitionBuildLoadsWeights) {
  Build(8, 2);
  auto cpu = device::MakeCpuDevice();
  ASSERT_OK_AND_ASSIGN(auto built,
                       SharedModel::FromTable(nn::MetaOf(model_, "m"), cpu.get(),
                                              1024, *table_, nullptr));
  const SharedModel& shared = *built;

  // First dense layer kernel (transposed [units x in]): spot-check against
  // the model weights.
  const nn::DenseLayer& dense = model_.layers()[0].dense;
  const float* w = shared.dense_kernel(0);
  for (int64_t in = 0; in < dense.input_dim; ++in) {
    for (int64_t out = 0; out < dense.units; ++out) {
      ASSERT_FLOAT_EQ(w[out * dense.input_dim + in], dense.kernel.At(in, out));
    }
  }
  // Bias matrix rows replicate the bias value across the vector size.
  const float* bias_mat = shared.dense_bias_matrix(0);
  for (int64_t u = 0; u < dense.units; ++u) {
    ASSERT_FLOAT_EQ(bias_mat[u * 1024], dense.bias[u]);
    ASSERT_FLOAT_EQ(bias_mat[u * 1024 + 1023], dense.bias[u]);
  }
  EXPECT_GT(shared.DeviceBytes(), 0);
}

TEST_F(SharedModelTest, ParallelBuildMatchesSerialBuild) {
  // Deep enough for several kRowsPerBlock blocks, so the pool tasks really
  // split the parse.
  Build(64, 6);
  ASSERT_GT(table_->num_rows(), 4 * kRowsPerBlock);
  auto cpu = device::MakeCpuDevice();
  ASSERT_OK_AND_ASSIGN(auto serial,
                       SharedModel::FromTable(nn::MetaOf(model_, "m"), cpu.get(),
                                              256, *table_, nullptr));
  ThreadPool pool(6);
  ASSERT_OK_AND_ASSIGN(auto parallel,
                       SharedModel::FromTable(nn::MetaOf(model_, "m"), cpu.get(),
                                              256, *table_, &pool));

  // Bit-identical weights and replicated bias matrices.
  for (size_t li = 0; li < model_.layers().size(); ++li) {
    const nn::DenseLayer& dense = model_.layers()[li].dense;
    const size_t kernel_bytes =
        static_cast<size_t>(dense.units * dense.input_dim) * sizeof(float);
    ASSERT_EQ(std::memcmp(parallel->dense_kernel(li), serial->dense_kernel(li),
                          kernel_bytes),
              0)
        << "layer " << li;
    const size_t bias_bytes =
        static_cast<size_t>(dense.units * 256) * sizeof(float);
    ASSERT_EQ(std::memcmp(parallel->dense_bias_matrix(li),
                          serial->dense_bias_matrix(li), bias_bytes),
              0)
        << "layer " << li;
  }
}

TEST_F(SharedModelTest, BuildFailurePropagatesWithoutDeadlock) {
  Build(64, 4);
  // Corrupt the table: a node id far outside the layout, in a late block
  // so that other tasks are parsing concurrently.
  const int64_t bad_row = table_->num_rows() - 3;
  ASSERT_GT(bad_row, 2 * kRowsPerBlock);
  storage::Table bad("m", table_->fields());
  for (int64_t r = 0; r < table_->num_rows(); ++r) {
    std::vector<storage::Value> row;
    for (int c = 0; c < table_->num_columns(); ++c) {
      row.push_back(table_->column(c).GetValue(r));
    }
    if (r == bad_row) row[1] = storage::Value::Int64(10000);  // 'node' column
    ASSERT_OK(bad.AppendRow(row));
  }
  bad.Finalize();

  auto cpu = device::MakeCpuDevice();
  ThreadPool pool(4);
  auto result = SharedModel::FromTable(nn::MetaOf(model_, "m"), cpu.get(), 64,
                                       bad, &pool);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(result.status().ToString().find("10000"), std::string::npos)
      << result.status().ToString();
  // The pool is not wedged: it still runs work after the failed build.
  ASSERT_OK_AND_ASSIGN(auto good,
                       SharedModel::FromTable(nn::MetaOf(model_, "m"), cpu.get(),
                                              64, *table_, &pool));
  EXPECT_GT(good->DeviceBytes(), 0);
}

TEST_F(SharedModelTest, LstmWeightsLandInGateBuffers) {
  auto model_or = nn::MakeLstmBenchmarkModel(4, 3, 5);
  ASSERT_TRUE(model_or.ok());
  nn::Model model = std::move(model_or).ValueOrDie();
  mltosql::MlToSql framework(&model, "m");
  ASSERT_OK_AND_ASSIGN(auto table, framework.BuildModelTable());

  auto cpu = device::MakeCpuDevice();
  ASSERT_OK_AND_ASSIGN(auto built,
                       SharedModel::FromTable(nn::MetaOf(model, "m"), cpu.get(),
                                              128, *table, nullptr));
  const SharedModel& shared = *built;

  const nn::LstmLayer& lstm = model.layers()[0].lstm;
  for (int g = 0; g < nn::kNumGates; ++g) {
    // Kernel [units x 1].
    for (int64_t u = 0; u < lstm.units; ++u) {
      ASSERT_FLOAT_EQ(shared.lstm_kernel(0, g)[u], lstm.kernel[g].At(0, u));
    }
    // Recurrent [units x units], transposed.
    for (int64_t j = 0; j < lstm.units; ++j) {
      for (int64_t k = 0; k < lstm.units; ++k) {
        ASSERT_FLOAT_EQ(shared.lstm_recurrent(0, g)[k * lstm.units + j],
                        lstm.recurrent[g].At(j, k));
      }
    }
  }
}

}  // namespace
}  // namespace indbml
