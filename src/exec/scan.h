#ifndef INDBML_EXEC_SCAN_H_
#define INDBML_EXEC_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/profile.h"

namespace indbml::exec {

/// A comparison predicate pushed into the scan; used both for row-level
/// filtering and for MinMax block pruning (paper §4.4: Small Materialized
/// Aggregates / zone maps let joins with a layer filter skip blocks of the
/// model table). A row passes when `cell op value` holds in the double
/// domain (int64 and bool cells converted to double).
struct ScanPredicate {
  int column = 0;      ///< index into the scanned (projected) columns' table slots
  BinaryOp op = BinaryOp::kEq;  ///< kEq/kNe/kLt/kLe/kGt/kGe
  Value value;
};

/// True when the zone maps prove that no row of block `block` of `table`
/// satisfies every predicate in `predicates` (paper §4.4's MinMax pruning).
/// The one pruning rule of the engine: the scan skips such blocks, and the
/// physical planner never dispatches a morsel whose blocks all qualify.
bool CanPruneBlock(const storage::Table& table,
                   const std::vector<ScanPredicate>& predicates, int64_t block);

/// Statistics a scan reports after Close (observability + pruning tests).
struct ScanStats {
  int64_t blocks_total = 0;
  int64_t blocks_pruned = 0;
  int64_t rows_emitted = 0;
};

/// EXPLAIN ANALYZE handles of the plan nodes a scan absorbed. A node id is
/// -1 when that node is the root of the absorbed chain: the root's
/// ProfiledOperator counts its rows and times the whole chain, so absorbed
/// nodes report rows only.
struct ScanProfile {
  QueryProfile* profile = nullptr;  ///< null: not profiled, nothing counted
  int scan_node = -1;               ///< rows passing the pushed predicates
  /// [residual] its Filter node: rows passing it and every condition below.
  std::vector<int> residual_nodes;
};

/// \brief Columnar table scan over a row range with pushed predicates,
/// zone-map block pruning, residual filter conditions and a column
/// projection — the planner's single operator for a
/// [Project(column refs)] [Filter]* Scan chain (sql/physical_planner).
///
/// The scan never copies row data: each Next() emits Vector views sharing
/// the table columns' buffers. A bare scan (no predicates, no residuals)
/// emits plain views; otherwise a window's survivors are computed as one
/// byte mask — pushed predicates via the vectorized compare-against-constant
/// kernels, residual conditions via one expression evaluation over the flat
/// window — and emitted as a single selection vector over the views.
///
/// Pushed predicates keep the double-domain rule of ScanPredicate bit for
/// bit: float columns compare against an exactly normalized float bound,
/// int64 columns in int64 when the literal is an integer within ±2^52, and
/// everything else through a scalar double compare. Residual conditions run
/// on every window row, so the planner only absorbs conditions that cannot
/// fail per row (no div/mod).
class TableScanOperator final : public Operator {
 public:
  /// Tag type selecting the morsel-bound constructor.
  struct MorselBound {};

  /// `columns`: table column indexes scanned, in order. `residuals`:
  /// bool-typed expressions over scan column positions, ANDed with the
  /// predicates. `projection`: scan column positions to emit, labeled by
  /// `names`; empty = every scanned column under its table name.
  TableScanOperator(storage::TablePtr table, storage::PartitionRange range,
                    std::vector<int> columns, std::vector<ScanPredicate> predicates,
                    std::vector<ExprPtr> residuals = {}, std::vector<int> projection = {},
                    std::vector<std::string> names = {}, ScanProfile profile = {});

  /// Morsel-bound scan: the row range is not fixed at plan time but
  /// re-targeted by every Rewind from the morsel range published in the
  /// ExecContext (exec/morsel.h). Until the first Rewind the scan is empty.
  TableScanOperator(MorselBound, storage::TablePtr table, std::vector<int> columns,
                    std::vector<ScanPredicate> predicates,
                    std::vector<ExprPtr> residuals = {}, std::vector<int> projection = {},
                    std::vector<std::string> names = {}, ScanProfile profile = {});

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override { return morsel_bound_; }

  const ScanStats& stats() const { return stats_; }

 private:
  /// ANDs predicate `p` over window rows [begin, begin + rows) into mask_.
  void ApplyPredicate(const ScanPredicate& p, int64_t begin, int64_t rows);
  /// ANDs every residual over window rows [begin, begin + rows) into mask_.
  Status ApplyResiduals(const ExecContext* ctx, int64_t begin, int64_t rows);
  /// Adds the window's survivors (the set bytes of `mask`, or all `rows`
  /// when null) to absorbed node `node`'s rows. Profiled scans only; node
  /// -1 is the chain root and counts nothing.
  void CountRows(const ExecContext* ctx, int node, const uint8_t* mask, int64_t rows);

  storage::TablePtr table_;
  storage::PartitionRange range_;
  std::vector<int> columns_;
  std::vector<ScanPredicate> predicates_;
  std::vector<ExprPtr> residuals_;
  std::vector<int> projection_;
  std::vector<DataType> types_;        // projected output types
  std::vector<std::string> names_;     // projected output names
  std::vector<DataType> scan_types_;   // all scanned columns' types
  ScanProfile profile_;
  bool morsel_bound_ = false;
  int64_t cursor_ = 0;
  ScanStats stats_;
  // Per-window scratch, reused across Next calls.
  std::vector<uint8_t> mask_;
  std::vector<int32_t> passing_;
  DataChunk window_;
  Vector cond_{DataType::kBool};
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_SCAN_H_
