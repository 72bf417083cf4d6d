#include "exec/scan.h"

#include <algorithm>
#include <cmath>

namespace indbml::exec {

namespace {

/// Evaluates `lhs op rhs` over doubles: the ScanPredicate rule.
bool CompareDoubles(double lhs, BinaryOp op, double rhs) {
  switch (op) {
    case BinaryOp::kEq:
      return lhs == rhs;
    case BinaryOp::kNe:
      return lhs != rhs;
    case BinaryOp::kLt:
      return lhs < rhs;
    case BinaryOp::kLe:
      return lhs <= rhs;
    case BinaryOp::kGt:
      return lhs > rhs;
    case BinaryOp::kGe:
      return lhs >= rhs;
    default:
      return true;
  }
}

/// Exact rewrite of `x op v` (x float, v double) as a float-domain
/// comparison, so float predicate columns can run through the 8-lane
/// compare kernel without changing a single row's outcome.
///
/// If v is exactly representable as float the op is unchanged. Otherwise v
/// falls strictly between two adjacent floats and the op is adjusted to
/// whichever neighbor (float)v rounded to: e.g. with fv < v, `x < v` holds
/// exactly for the floats x <= fv, so kLt becomes kLe against fv.
struct FloatPredicate {
  enum Kind { kCompare, kAlwaysTrue, kAlwaysFalse };
  Kind kind;
  BinaryOp op;
  float bound;
};

FloatPredicate NormalizeFloatPredicate(BinaryOp op, double v) {
  const float fv = static_cast<float>(v);
  // NaN: every float compares with NaN the same way in both domains.
  if (std::isnan(v) || static_cast<double>(fv) == v) {
    return {FloatPredicate::kCompare, op, fv};
  }
  const bool fv_below = static_cast<double>(fv) < v;
  switch (op) {
    case BinaryOp::kEq:
      return {FloatPredicate::kAlwaysFalse, op, fv};
    case BinaryOp::kNe:
      return {FloatPredicate::kAlwaysTrue, op, fv};
    case BinaryOp::kLt:
      return {FloatPredicate::kCompare, fv_below ? BinaryOp::kLe : BinaryOp::kLt,
              fv};
    case BinaryOp::kLe:
      return {FloatPredicate::kCompare, fv_below ? BinaryOp::kLe : BinaryOp::kLt,
              fv};
    case BinaryOp::kGt:
      return {FloatPredicate::kCompare, fv_below ? BinaryOp::kGt : BinaryOp::kGe,
              fv};
    case BinaryOp::kGe:
      return {FloatPredicate::kCompare, fv_below ? BinaryOp::kGt : BinaryOp::kGe,
              fv};
    default:
      return {FloatPredicate::kAlwaysTrue, op, fv};
  }
}

/// True when `x op v` (x int64, v double) is equivalent to the pure int64
/// comparison `x op (int64)v`: v must be integral and small enough that no
/// int64-to-double rounding can cross it (|v| <= 2^52 keeps every rounded
/// int64 on the same side of v as the exact value).
bool IntPredicateIsExact(double v) {
  constexpr double kLimit = 4503599627370496.0;  // 2^52
  return std::floor(v) == v && std::fabs(v) <= kLimit;
}

}  // namespace

bool CanPruneBlock(const storage::Table& table,
                   const std::vector<ScanPredicate>& predicates, int64_t block) {
  for (const ScanPredicate& p : predicates) {
    const storage::BlockStats& bs =
        table.block_stats(p.column)[static_cast<size_t>(block)];
    double lo = bs.min.AsDouble();
    double hi = bs.max.AsDouble();
    double v = p.value.AsDouble();
    bool may_match = true;
    switch (p.op) {
      case BinaryOp::kEq:
        may_match = lo <= v && v <= hi;
        break;
      case BinaryOp::kLt:
        may_match = lo < v;
        break;
      case BinaryOp::kLe:
        may_match = lo <= v;
        break;
      case BinaryOp::kGt:
        may_match = hi > v;
        break;
      case BinaryOp::kGe:
        may_match = hi >= v;
        break;
      case BinaryOp::kNe:
        may_match = bs.has_nan || !(lo == v && hi == v);  // NaN != v holds
        break;
      default:
        may_match = true;
        break;
    }
    if (!may_match) return true;
  }
  return false;
}

TableScanOperator::TableScanOperator(storage::TablePtr table,
                                     storage::PartitionRange range,
                                     std::vector<int> columns,
                                     std::vector<ScanPredicate> predicates,
                                     std::vector<ExprPtr> residuals,
                                     std::vector<int> projection,
                                     std::vector<std::string> names,
                                     ScanProfile profile)
    : table_(std::move(table)),
      range_(range),
      columns_(std::move(columns)),
      predicates_(std::move(predicates)),
      residuals_(std::move(residuals)),
      projection_(std::move(projection)),
      names_(std::move(names)),
      profile_(std::move(profile)) {
  for (int c : columns_) {
    scan_types_.push_back(table_->fields()[static_cast<size_t>(c)].type);
  }
  if (projection_.empty()) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      projection_.push_back(static_cast<int>(i));
    }
  }
  const bool named = !names_.empty();
  for (int p : projection_) {
    types_.push_back(scan_types_[static_cast<size_t>(p)]);
    if (!named) {
      names_.push_back(
          table_->fields()[static_cast<size_t>(columns_[static_cast<size_t>(p)])].name);
    }
  }
  profile_.residual_nodes.resize(residuals_.size(), -1);
}

TableScanOperator::TableScanOperator(MorselBound, storage::TablePtr table,
                                     std::vector<int> columns,
                                     std::vector<ScanPredicate> predicates,
                                     std::vector<ExprPtr> residuals,
                                     std::vector<int> projection,
                                     std::vector<std::string> names,
                                     ScanProfile profile)
    : TableScanOperator(std::move(table), storage::PartitionRange{0, 0},
                        std::move(columns), std::move(predicates), std::move(residuals),
                        std::move(projection), std::move(names), std::move(profile)) {
  morsel_bound_ = true;
}

Status TableScanOperator::Open(ExecContext*) {
  if (!table_->finalized()) {
    return Status::Internal("scanning a non-finalized table: " + table_->name());
  }
  if (morsel_bound_) range_ = {0, 0};
  cursor_ = range_.begin;
  stats_ = {};  // stats accumulate across Rewinds, reset only here
  return Status::OK();
}

Status TableScanOperator::Rewind(ExecContext* ctx) {
  if (morsel_bound_) {
    range_ = {ctx->morsel_begin, ctx->morsel_end};
  }
  cursor_ = range_.begin;
  return Status::OK();
}

void TableScanOperator::ApplyPredicate(const ScanPredicate& p, int64_t begin,
                                       int64_t rows) {
  const storage::Column& col = table_->column(p.column);
  const double v = p.value.AsDouble();
  uint8_t* mask = mask_.data();
  switch (col.type()) {
    case DataType::kFloat: {
      const FloatPredicate np = NormalizeFloatPredicate(p.op, v);
      if (np.kind == FloatPredicate::kAlwaysFalse) {
        std::fill(mask, mask + rows, uint8_t{0});
      } else if (np.kind == FloatPredicate::kCompare) {
        AndMaskCompareConstFloat(np.op, col.float_data() + begin, np.bound, rows, mask);
      }
      return;
    }
    case DataType::kInt64: {
      const int64_t* d = col.int_data() + begin;
      if (IntPredicateIsExact(v)) {
        AndMaskCompareConstInt64(p.op, d, static_cast<int64_t>(v), rows, mask);
      } else {
        for (int64_t i = 0; i < rows; ++i) {
          mask[i] = mask[i] & (CompareDoubles(static_cast<double>(d[i]), p.op, v) ? 1 : 0);
        }
      }
      return;
    }
    case DataType::kBool: {
      const uint8_t* d = col.bool_data() + begin;
      for (int64_t i = 0; i < rows; ++i) {
        mask[i] = mask[i] & (CompareDoubles(d[i] != 0 ? 1 : 0, p.op, v) ? 1 : 0);
      }
      return;
    }
  }
}

Status TableScanOperator::ApplyResiduals(const ExecContext* ctx, int64_t begin,
                                         int64_t rows) {
  window_.Reset(scan_types_);
  for (size_t ci = 0; ci < columns_.size(); ++ci) {
    const storage::Column& col = table_->column(columns_[ci]);
    window_.column(static_cast<int64_t>(ci)) =
        Vector::View(col.type(), col.buffer(), begin, rows);
  }
  window_.size = rows;
  uint8_t* mask = mask_.data();
  for (size_t i = 0; i < residuals_.size(); ++i) {
    INDBML_RETURN_NOT_OK(EvaluateExpr(*residuals_[i], window_, &cond_));
    cond_.Flatten();
    const uint8_t* c = std::as_const(cond_).bools();
    for (int64_t r = 0; r < rows; ++r) {
      mask[r] = mask[r] & (c[r] != 0 ? 1 : 0);
    }
    CountRows(ctx, profile_.residual_nodes[i], mask, rows);
  }
  return Status::OK();
}

void TableScanOperator::CountRows(const ExecContext* ctx, int node, const uint8_t* mask,
                                  int64_t rows) {
  if (profile_.profile == nullptr || node < 0) return;
  const int64_t survivors =
      mask == nullptr ? rows : std::count(mask, mask + rows, uint8_t{1});
  OperatorStats* stats = profile_.profile->slot(node, ctx->worker_id);
  stats->rows += survivors;
  if (survivors > 0) ++stats->chunks;
}

Status TableScanOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  const int64_t rows_per_block = table_->rows_per_block();
  const bool filtering = !predicates_.empty() || !residuals_.empty();
  while (cursor_ < range_.end) {
    // Block pruning: at a block boundary, consult the zone maps before
    // touching rows. Only pushed predicates prune (residual conditions are
    // arbitrary expressions).
    if (!predicates_.empty()) {
      int64_t block = cursor_ / rows_per_block;
      int64_t block_end = std::min((block + 1) * rows_per_block, range_.end);
      if (cursor_ % rows_per_block == 0 && block_end <= range_.end) {
        ++stats_.blocks_total;
        if (CanPruneBlock(*table_, predicates_, block)) {
          ++stats_.blocks_pruned;
          cursor_ = block_end;
          continue;
        }
      }
    }

    // One contiguous window per Next: up to kDefaultVectorSize base rows,
    // clipped to the block when predicates are present so pruning decisions
    // stay per-block.
    int64_t window_end = std::min(cursor_ + kDefaultVectorSize, range_.end);
    if (!predicates_.empty()) {
      window_end = std::min(window_end,
                            ((cursor_ / rows_per_block) + 1) * rows_per_block);
    }
    const int64_t window_rows = window_end - cursor_;

    SelectionPtr sel;
    if (filtering) {
      mask_.assign(static_cast<size_t>(window_rows), 1);
      for (const ScanPredicate& p : predicates_) {
        ApplyPredicate(p, cursor_, window_rows);
      }
      CountRows(ctx, profile_.scan_node, mask_.data(), window_rows);
      if (!residuals_.empty()) {
        INDBML_RETURN_NOT_OK(ApplyResiduals(ctx, cursor_, window_rows));
      }
      passing_.clear();
      passing_.reserve(static_cast<size_t>(window_rows));
      AppendMaskIndices(mask_.data(), window_rows, 0, &passing_);
      if (passing_.empty()) {
        cursor_ = window_end;
        continue;  // nothing survived this window; keep scanning
      }
      sel = std::make_shared<const SelectionVector>(passing_);
    } else {
      CountRows(ctx, profile_.scan_node, nullptr, window_rows);
    }

    // Emit views over the table's column buffers — no row data is copied.
    for (size_t oi = 0; oi < projection_.size(); ++oi) {
      const storage::Column& col =
          table_->column(columns_[static_cast<size_t>(projection_[oi])]);
      Vector view = Vector::View(col.type(), col.buffer(), cursor_, window_rows);
      out->column(static_cast<int64_t>(oi)) =
          sel != nullptr ? view.WithSelection(sel) : std::move(view);
    }
    out->size = sel != nullptr ? sel->size() : window_rows;
    cursor_ = window_end;
    stats_.rows_emitted += out->size;
    *eof = cursor_ >= range_.end;
    return Status::OK();
  }
  *eof = true;
  return Status::OK();
}

}  // namespace indbml::exec
