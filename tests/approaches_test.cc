#include "benchlib/approaches.h"

#include <gtest/gtest.h>

#include <cmath>

#include "benchlib/workloads.h"
#include "test_util.h"

namespace indbml {
namespace {

using benchlib::Approach;
using benchlib::ApproachContext;
using benchlib::PrepareApproachContext;
using benchlib::RunApproach;
using benchlib::RunMeasurement;

/// "We use the same model for each implementation variant and ensure
/// consistent results" (paper §6.1): every approach must agree with the
/// in-memory reference on row count and prediction checksum.
class ApproachConsistencyTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 4000;

  void SetUpDense(int64_t width, int64_t depth) {
    engine_ = std::make_unique<sql::QueryEngine>();
    ASSERT_OK(engine_->catalog()->CreateTable(benchlib::MakeIrisTable("fact", kRows)));
    ASSERT_OK_AND_ASSIGN(model_, nn::MakeDenseBenchmarkModel(width, depth, 99));
    ASSERT_OK_AND_ASSIGN(
        context_,
        PrepareApproachContext(engine_.get(), &model_, "m", "fact",
                               {"sepal_length", "sepal_width", "petal_length",
                                "petal_width"}));
    ComputeReference();
  }

  void SetUpLstm(int64_t width) {
    engine_ = std::make_unique<sql::QueryEngine>();
    ASSERT_OK(
        engine_->catalog()->CreateTable(benchlib::MakeSinusTable("fact", kRows, 3)));
    ASSERT_OK_AND_ASSIGN(model_, nn::MakeLstmBenchmarkModel(width, 3, 99));
    ASSERT_OK_AND_ASSIGN(context_, PrepareApproachContext(engine_.get(), &model_, "m",
                                                          "fact", {"x0", "x1", "x2"}));
    ComputeReference();
  }

  void ComputeReference() {
    ASSERT_OK_AND_ASSIGN(auto fact, engine_->catalog()->GetTable("fact"));
    nn::Tensor x = nn::Tensor::Matrix(kRows, model_.input_width());
    for (int64_t r = 0; r < kRows; ++r) {
      for (size_t c = 0; c < context_.input_columns.size(); ++c) {
        int col = *fact->ColumnIndex(context_.input_columns[c]);
        x.At(r, static_cast<int64_t>(c)) = fact->column(col).GetFloat(r);
      }
    }
    ASSERT_OK_AND_ASSIGN(auto pred, model_.Predict(x));
    reference_checksum_ = 0;
    for (int64_t i = 0; i < pred.size(); ++i) reference_checksum_ += pred[i];
  }

  void CheckApproach(Approach approach) {
    ASSERT_OK_AND_ASSIGN(RunMeasurement m, RunApproach(approach, context_));
    EXPECT_EQ(m.rows, kRows) << benchlib::ApproachName(approach);
    // Checksums across n=4000 float predictions; allow accumulated-order
    // noise proportional to the magnitude.
    double tolerance = 1e-3 * (1.0 + std::fabs(reference_checksum_));
    EXPECT_NEAR(m.prediction_checksum, reference_checksum_, tolerance)
        << benchlib::ApproachName(approach);
    EXPECT_GT(m.wall_seconds, 0);
    EXPECT_GT(m.adjusted_seconds, 0);
    if (benchlib::IsGpuApproach(approach)) {
      EXPECT_GT(m.gpu_stats.kernel_launches, 0) << benchlib::ApproachName(approach);
    }
  }

  std::unique_ptr<sql::QueryEngine> engine_;
  nn::Model model_;
  ApproachContext context_;
  double reference_checksum_ = 0;
};

TEST_F(ApproachConsistencyTest, DenseAllApproachesAgree) {
  SetUpDense(16, 2);
  for (Approach approach : benchlib::AllApproaches()) {
    SCOPED_TRACE(benchlib::ApproachName(approach));
    CheckApproach(approach);
  }
}

TEST_F(ApproachConsistencyTest, LstmAllApproachesAgree) {
  SetUpLstm(8);
  for (Approach approach : benchlib::AllApproaches()) {
    SCOPED_TRACE(benchlib::ApproachName(approach));
    CheckApproach(approach);
  }
}

TEST_F(ApproachConsistencyTest, GpuAdjustmentUsesModeledTime) {
  SetUpDense(32, 2);
  ASSERT_OK_AND_ASSIGN(RunMeasurement m,
                       RunApproach(Approach::kModelJoinGpu, context_));
  EXPECT_GT(m.gpu_stats.modeled_seconds, 0);
  EXPECT_GT(m.gpu_stats.bytes_to_device, 0);
  EXPECT_GT(m.gpu_stats.bytes_to_host, 0);
  EXPECT_NEAR(m.adjusted_seconds,
              m.wall_seconds - m.gpu_stats.real_seconds + m.gpu_stats.modeled_seconds,
              1e-9);
}

TEST_F(ApproachConsistencyTest, MemoryFootprintOrdering) {
  // Compared where intermediates dominate: each LSTM step's kernel-part
  // cross join, combine join and aggregations hold per-tuple state (about
  // 12x ModelJoin's peak over 4 000 tuples). The pipelined dense layer
  // blocks keep only a prefix's groups and the key-grouped model table, so
  // on dense models the two peaks are within a few percent of each other
  // (EXPERIMENTS.md, Table 3).
  SetUpLstm(16);
  ASSERT_OK_AND_ASSIGN(RunMeasurement native,
                       RunApproach(Approach::kModelJoinCpu, context_));
  ASSERT_OK_AND_ASSIGN(RunMeasurement sql_based,
                       RunApproach(Approach::kMlToSql, context_));
  // Table 3's qualitative shape: the generic relational plan holds larger
  // intermediate state than the native operator.
  EXPECT_GT(sql_based.peak_delta_bytes, native.peak_delta_bytes);
}

}  // namespace
}  // namespace indbml
