#include "exec/basic_operators.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/config.h"
#include "exec/gather.h"

namespace indbml::exec {

FilterOperator::FilterOperator(OperatorPtr child, ExprPtr condition)
    : child_(std::move(child)), condition_(std::move(condition)) {}

Status FilterOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  *eof = false;
  while (out->size == 0) {
    in_.Reset(child_->output_types());
    bool child_eof = false;
    INDBML_RETURN_NOT_OK(child_->Next(ctx, &in_, &child_eof));
    if (in_.size > 0) {
      Vector mask(DataType::kBool);
      INDBML_RETURN_NOT_OK(EvaluateExpr(*condition_, in_, &mask));
      // A bare column-ref condition yields a view that may carry the
      // input's selection; flatten so the mask scan is one linear pass.
      mask.Flatten();
      const uint8_t* m = std::as_const(mask).bools();
      std::vector<int32_t> passing;
      passing.reserve(static_cast<size_t>(in_.size));
      AppendMaskIndices(m, in_.size, 0, &passing);
      // Survivors become a selection over the input's views — no row data
      // moves; WithSelection composes with any selection already present.
      if (!passing.empty()) {
        auto sel = std::make_shared<const SelectionVector>(std::move(passing));
        for (int64_t c = 0; c < in_.num_columns(); ++c) {
          out->column(c) = in_.column(c).WithSelection(sel);
        }
        out->size = sel->size();
      }
    }
    if (child_eof) {
      *eof = true;
      return Status::OK();
    }
  }
  return Status::OK();
}

ProjectOperator::ProjectOperator(OperatorPtr child, std::vector<ExprPtr> exprs,
                                 std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)), names_(std::move(names)) {
  for (const auto& e : exprs_) types_.push_back(e->type);
}

Status ProjectOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  in_.Reset(child_->output_types());
  INDBML_RETURN_NOT_OK(child_->Next(ctx, &in_, eof));
  if (in_.size == 0) return Status::OK();
  for (size_t i = 0; i < exprs_.size(); ++i) {
    INDBML_RETURN_NOT_OK(
        EvaluateExpr(*exprs_[i], in_, &out->column(static_cast<int64_t>(i))));
  }
  out->size = in_.size;
  return Status::OK();
}

Status LimitOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  if (remaining_ <= 0) {
    *eof = true;
    return Status::OK();
  }
  INDBML_RETURN_NOT_OK(child_->Next(ctx, out, eof));
  if (out->size > remaining_) {
    out->SetCardinality(remaining_);
  }
  remaining_ -= out->size;
  if (remaining_ <= 0) *eof = true;
  return Status::OK();
}

SortOperator::SortOperator(OperatorPtr child, std::vector<ExprPtr> keys,
                           std::vector<bool> ascending)
    : child_(std::move(child)), keys_(std::move(keys)), ascending_(std::move(ascending)) {}

Status SortOperator::Open(ExecContext* ctx) {
  sorted_ = false;
  return child_->Open(ctx);
}

Status SortOperator::Rewind(ExecContext* ctx) {
  columns_.clear();
  rows_ = 0;
  order_.clear();
  cursor_ = 0;
  sorted_ = false;
  return child_->Rewind(ctx);
}

Status SortOperator::Materialize(ExecContext* ctx) {
  INDBML_RETURN_NOT_OK(DrainColumns(child_.get(), ctx, &columns_, &rows_));
  // Evaluate the sort keys once over the flat input, then sort a row index
  // vector; rows are compared as doubles.
  const DataChunk input = ColumnsChunk(columns_, rows_);
  std::vector<Vector> key_cols;
  std::vector<TypedDoubleReader> keys;
  key_cols.reserve(keys_.size());
  keys.reserve(keys_.size());
  for (const auto& k : keys_) {
    key_cols.emplace_back(k->type);
    INDBML_RETURN_NOT_OK(EvaluateExpr(*k, input, &key_cols.back()));
    keys.emplace_back(key_cols.back());
  }
  order_.resize(static_cast<size_t>(rows_));
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(), [&](int32_t a, int32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const double va = keys[k].DoubleAt(a);
      const double vb = keys[k].DoubleAt(b);
      if (va == vb) continue;
      bool lt = va < vb;
      return ascending_[k] ? lt : !lt;
    }
    return false;
  });
  cursor_ = 0;
  sorted_ = true;
  return Status::OK();
}

Status SortOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  if (!sorted_) INDBML_RETURN_NOT_OK(Materialize(ctx));
  const int64_t n = std::min<int64_t>(kDefaultVectorSize - out->size,
                                      rows_ - static_cast<int64_t>(cursor_));
  for (size_t c = 0; c < columns_.size(); ++c) {
    GatherIndexed(columns_[c], order_.data() + cursor_, n,
                  &out->column(static_cast<int64_t>(c)), out->size);
  }
  out->size += n;
  cursor_ += static_cast<size_t>(n);
  *eof = cursor_ >= order_.size();
  return Status::OK();
}

}  // namespace indbml::exec
