#ifndef INDBML_EXEC_SCAN_H_
#define INDBML_EXEC_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace indbml::exec {

/// A comparison predicate pushed into the scan; used both for row-level
/// filtering and for MinMax block pruning (paper §4.4: Small Materialized
/// Aggregates / zone maps let joins with a layer filter skip blocks of the
/// model table).
struct ScanPredicate {
  int column = 0;      ///< index into the scanned (projected) columns' table slots
  BinaryOp op = BinaryOp::kEq;  ///< kEq/kNe/kLt/kLe/kGt/kGe
  Value value;
};

/// Statistics a scan reports after Close (observability + pruning tests).
struct ScanStats {
  int64_t blocks_total = 0;
  int64_t blocks_pruned = 0;
  int64_t rows_emitted = 0;
};

/// \brief Columnar table scan over a row range with optional pushed
/// predicates and zone-map block pruning.
///
/// The scan never touches row data to emit a chunk: each Next() produces
/// Vector views sharing the table columns' buffers, and pushed predicates
/// become a SelectionVector over the window instead of a survivor copy.
class TableScanOperator final : public Operator {
 public:
  /// Tag type selecting the morsel-bound constructor.
  struct MorselBound {};

  /// `columns`: table column indexes to emit, in order.
  TableScanOperator(storage::TablePtr table, storage::PartitionRange range,
                    std::vector<int> columns, std::vector<ScanPredicate> predicates);

  /// Morsel-bound scan: the row range is not fixed at plan time but
  /// re-targeted by every Rewind from the morsel range published in the
  /// ExecContext (exec/morsel.h). Until the first Rewind the scan is empty.
  TableScanOperator(MorselBound, storage::TablePtr table, std::vector<int> columns,
                    std::vector<ScanPredicate> predicates);

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override { return morsel_bound_; }

  const ScanStats& stats() const { return stats_; }

 private:
  /// True if the block [block_begin, block_end) can be skipped entirely.
  bool CanPruneBlock(int64_t block_index) const;
  /// True if row `r` passes all pushed predicates.
  bool RowPasses(int64_t r) const;

  storage::TablePtr table_;
  storage::PartitionRange range_;
  std::vector<int> columns_;
  std::vector<ScanPredicate> predicates_;
  std::vector<DataType> types_;
  std::vector<std::string> names_;
  bool morsel_bound_ = false;
  int64_t cursor_ = 0;
  ScanStats stats_;
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_SCAN_H_
