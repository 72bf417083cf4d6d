#include "exec/scan.h"

#include <algorithm>

namespace indbml::exec {

namespace {

/// Evaluates `lhs op rhs` over doubles (types are homogeneous per column, so
/// numeric comparison is exact for the int ranges the workloads use).
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

}  // namespace

TableScanOperator::TableScanOperator(storage::TablePtr table,
                                     storage::PartitionRange range,
                                     std::vector<int> columns,
                                     std::vector<ScanPredicate> predicates)
    : table_(std::move(table)),
      range_(range),
      columns_(std::move(columns)),
      predicates_(std::move(predicates)) {
  for (int c : columns_) {
    types_.push_back(table_->fields()[static_cast<size_t>(c)].type);
    names_.push_back(table_->fields()[static_cast<size_t>(c)].name);
  }
}

TableScanOperator::TableScanOperator(MorselBound, storage::TablePtr table,
                                     std::vector<int> columns,
                                     std::vector<ScanPredicate> predicates)
    : TableScanOperator(std::move(table), storage::PartitionRange{0, 0},
                        std::move(columns), std::move(predicates)) {
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

bool TableScanOperator::CanPruneBlock(int64_t block_index) const {
  for (const ScanPredicate& p : predicates_) {
    const auto& stats = table_->block_stats(p.column);
    const storage::BlockStats& bs = stats[static_cast<size_t>(block_index)];
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
        may_match = !(lo == v && hi == v);
        break;
      default:
        may_match = true;
        break;
    }
    if (!may_match) return true;
  }
  return false;
}

bool TableScanOperator::RowPasses(int64_t r) const {
  for (const ScanPredicate& p : predicates_) {
    const storage::Column& col = table_->column(p.column);
    double v;
    switch (col.type()) {
      case DataType::kInt64:
        v = static_cast<double>(col.GetInt64(r));
        break;
      case DataType::kFloat:
        v = col.GetFloat(r);
        break;
      default:
        v = col.GetBool(r) ? 1 : 0;
        break;
    }
    if (!CompareDoubles(v, p.op, p.value.AsDouble())) return false;
  }
  return true;
}

Status TableScanOperator::Next(ExecContext*, DataChunk* out, bool* eof) {
  const int64_t rows_per_block = table_->rows_per_block();
  while (cursor_ < range_.end) {
    // Block pruning: at a block boundary, consult the zone maps before
    // touching rows.
    if (!predicates_.empty()) {
      int64_t block = cursor_ / rows_per_block;
      int64_t block_end = std::min((block + 1) * rows_per_block, range_.end);
      if (cursor_ % rows_per_block == 0 && block_end <= range_.end) {
        ++stats_.blocks_total;
        if (CanPruneBlock(block)) {
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
    if (!predicates_.empty()) {
      std::vector<int32_t> passing;
      for (int64_t r = cursor_; r < window_end; ++r) {
        if (RowPasses(r)) passing.push_back(static_cast<int32_t>(r - cursor_));
      }
      if (passing.empty()) {
        cursor_ = window_end;
        continue;  // nothing survived this window; keep scanning
      }
      sel = std::make_shared<const SelectionVector>(std::move(passing));
    }

    // Emit views over the table's column buffers — no row data is copied.
    for (size_t ci = 0; ci < columns_.size(); ++ci) {
      const storage::Column& col = table_->column(columns_[ci]);
      Vector view = Vector::View(col.type(), col.buffer(), cursor_, window_rows);
      out->column(static_cast<int64_t>(ci)) =
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
