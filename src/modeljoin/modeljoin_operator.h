#ifndef INDBML_MODELJOIN_MODELJOIN_OPERATOR_H_
#define INDBML_MODELJOIN_MODELJOIN_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "exec/operator.h"
#include "inference/batcher.h"
#include "inference/shared_model.h"

namespace indbml::modeljoin {

/// \brief The native ModelJoin query operator (paper §5).
///
/// Volcano-style join over a model that is complete before the operator
/// exists: the query's build phase (SharedModel::FromTable, run by the
/// ModelJoin state factory while the plan is prepared) or the serving
/// registry supplies it, so Open() never builds or waits. Next() pulls a
/// chunk from the input flow, gathers the input columns into a
/// feature-major staging matrix (one contiguous copy per column, §5.3),
/// hands it to the shared inference path — InferenceBatcher (cache +
/// cross-query coalescing) in front of InferenceRuntime, which owns the
/// forward-pass math this operator used to carry — and appends the
/// prediction columns to the pass-through child columns. The operator is
/// fully pipelined — not a pipeline breaker (§5.4).
class ModelJoinOperator final : public exec::Operator {
 public:
  ModelJoinOperator(exec::OperatorPtr child,
                    std::shared_ptr<inference::SharedModel> model,
                    std::vector<int> input_column_indexes,
                    std::vector<std::string> prediction_names,
                    inference::InferenceOptions inference = {});
  ~ModelJoinOperator() override;

  const std::vector<exec::DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(exec::ExecContext* ctx) override;
  Status Next(exec::ExecContext* ctx, exec::DataChunk* out, bool* eof) override;
  void Close(exec::ExecContext* ctx) override;
  /// Re-arms only the input flow: the shared model survives every morsel.
  Status Rewind(exec::ExecContext* ctx) override { return child_->Rewind(ctx); }
  bool MorselDriven() const override { return child_->MorselDriven(); }

 private:
  exec::OperatorPtr child_;
  std::shared_ptr<inference::SharedModel> model_;
  std::vector<int> input_columns_;
  std::vector<exec::DataType> types_;
  std::vector<std::string> names_;
  inference::InferenceOptions inference_;
  exec::DataChunk in_;  ///< reused input buffer (no per-batch reallocation)

  /// Host staging for one chunk: the feature-major [input_width x n] input
  /// matrix and the [output_dim x n] predictions (allocated in Open,
  /// released in Close).
  std::vector<float> input_staging_;
  std::vector<float> output_staging_;

  /// Process-wide metrics, resolved once in the constructor so per-chunk
  /// updates are plain relaxed atomics (no registry lookup on the hot path).
  metrics::Counter* rows_metric_;
  metrics::Histogram* convert_micros_metric_;
  metrics::Histogram* infer_micros_metric_;
};

}  // namespace indbml::modeljoin

#endif  // INDBML_MODELJOIN_MODELJOIN_OPERATOR_H_
