#include "modeljoin/modeljoin_operator.h"

#include <algorithm>
#include <cstring>

#include "common/config.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "exec/gather.h"
#include "exec/profile.h"

namespace indbml::modeljoin {

ModelJoinOperator::ModelJoinOperator(
    exec::OperatorPtr child, std::shared_ptr<inference::SharedModel> model,
    std::vector<int> input_column_indexes,
    std::vector<std::string> prediction_names,
    inference::InferenceOptions inference)
    : child_(std::move(child)),
      model_(std::move(model)),
      input_columns_(std::move(input_column_indexes)),
      inference_(inference),
      rows_metric_(metrics::Registry::Global().counter("modeljoin.rows")),
      convert_micros_metric_(
          metrics::Registry::Global().histogram("modeljoin.convert_micros")),
      infer_micros_metric_(
          metrics::Registry::Global().histogram("modeljoin.infer_micros")) {
  types_ = child_->output_types();
  names_ = child_->output_names();
  for (const std::string& name : prediction_names) {
    types_.push_back(exec::DataType::kFloat);
    names_.push_back(name);
  }
}

ModelJoinOperator::~ModelJoinOperator() = default;

Status ModelJoinOperator::Open(exec::ExecContext* ctx) {
  INDBML_RETURN_NOT_OK(child_->Open(ctx));

  // Host staging for one vector of rows.
  const nn::ModelMeta& meta = model_->meta();
  const int64_t vs = model_->vector_size();
  input_staging_.resize(
      static_cast<size_t>(std::max<int64_t>(1, meta.input_width()) * vs));
  output_staging_.resize(static_cast<size_t>(meta.output_dim() * vs));
  return Status::OK();
}

Status ModelJoinOperator::Next(exec::ExecContext* ctx, exec::DataChunk* out,
                               bool* eof) {
  in_.Reset(child_->output_types());
  INDBML_RETURN_NOT_OK(child_->Next(ctx, &in_, eof));
  exec::DataChunk& in = in_;
  const int64_t n = in.size;
  const int64_t child_width = in.num_columns();
  if (n == 0) {
    return Status::OK();
  }
  const nn::ModelMeta& meta = model_->meta();
  // Operators emit at most kDefaultVectorSize rows per chunk (ValidateChunk
  // enforces it), but a larger chunk grows the staging instead of overrunning
  // it; the inference runtime blocks it at the model's vector size.
  const size_t input_floats =
      static_cast<size_t>(std::max<int64_t>(1, meta.input_width()) * n);
  if (input_staging_.size() < input_floats) input_staging_.resize(input_floats);
  const size_t output_floats = static_cast<size_t>(meta.output_dim() * n);
  if (output_staging_.size() < output_floats) output_staging_.resize(output_floats);

  // Input conversion (§5.3): one contiguous copy per input column into the
  // feature-major staging matrix.
  Stopwatch phase_watch;
  for (size_t ci = 0; ci < input_columns_.size(); ++ci) {
    const exec::Vector& col = in.column(input_columns_[ci]);
    float* dst = input_staging_.data() + static_cast<int64_t>(ci) * n;
    if (col.type() == exec::DataType::kFloat && !col.has_selection()) {
      // Flat float column (possibly a zero-copy view over table storage).
      std::memcpy(dst, col.floats(), static_cast<size_t>(n) * sizeof(float));
    } else {
      // Selected or non-float columns: typed gather through the selection
      // vector — one indexed load per row, no per-row Value boxing.
      exec::GatherToFloat(col, dst);
    }
  }
  int64_t convert_nanos = phase_watch.ElapsedNanos();

  // The forward pass lives in src/inference; the batcher adds the result
  // cache and cross-query coalescing in front of it.
  inference::InferenceCallStats call_stats;
  int64_t infer_nanos;
  {
    trace::Span span("modeljoin.infer");
    phase_watch.Restart();
    INDBML_RETURN_NOT_OK(inference::InferenceBatcher::Global().Run(
        model_, input_staging_.data(), n, output_staging_.data(), inference_,
        ctx->interrupt, &call_stats));
    infer_nanos = phase_watch.ElapsedNanos();
  }

  // Pass-through columns.
  for (int64_t c = 0; c < child_width; ++c) {
    out->column(c) = std::move(in.column(c));
  }
  // Output conversion: one contiguous copy per prediction column.
  phase_watch.Restart();
  int64_t out_dim = meta.output_dim();
  for (int64_t p = 0; p < out_dim; ++p) {
    exec::Vector& col = out->column(child_width + p);
    col.Resize(n);
    std::memcpy(col.floats(), output_staging_.data() + p * n,
                static_cast<size_t>(n) * sizeof(float));
  }
  convert_nanos += phase_watch.ElapsedNanos();
  out->size = n;

  rows_metric_->Increment(n);
  convert_micros_metric_->Record(convert_nanos / 1000);
  infer_micros_metric_->Record(infer_nanos / 1000);
  if (ctx->active_stats != nullptr) {
    ctx->active_stats->AddPhase("convert", convert_nanos);
    // Split the inference time so EXPLAIN ANALYZE shows how much of it was
    // spent in the result cache and waiting for batch partners vs. running
    // the NN.
    const int64_t lookup_nanos = std::min(infer_nanos, call_stats.lookup_nanos);
    const int64_t wait_nanos =
        std::min(infer_nanos - lookup_nanos, call_stats.wait_micros * 1000);
    if (lookup_nanos > 0) {
      ctx->active_stats->AddPhase("cache_lookup", lookup_nanos);
    }
    if (wait_nanos > 0) {
      ctx->active_stats->AddPhase("batch_wait", wait_nanos);
    }
    ctx->active_stats->AddPhase("inference",
                                infer_nanos - lookup_nanos - wait_nanos);
  }
  return Status::OK();
}

void ModelJoinOperator::Close(exec::ExecContext* ctx) {
  child_->Close(ctx);
  input_staging_.clear();
  input_staging_.shrink_to_fit();
  output_staging_.clear();
  output_staging_.shrink_to_fit();
}

}  // namespace indbml::modeljoin
