#ifndef INDBML_STORAGE_TABLE_H_
#define INDBML_STORAGE_TABLE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/column.h"
#include "storage/types.h"

namespace indbml::storage {

/// MinMax statistics of one column within one storage block — the paper's
/// Small Materialized Aggregates / zone maps (§4.4), used by scans for
/// block pruning of model tables. NaN cells are left out of min and max
/// (they would make every comparison with the bounds false) and flagged
/// instead; a block of NaN cells only keeps NaN bounds.
struct BlockStats {
  Value min;
  Value max;
  bool has_nan = false;
};

/// Contiguous range of rows of a table (a scan range or a scheduling
/// morsel, exec/morsel.h). Ranges are contiguous in row order, which keeps
/// morsel-wise execution order-preserving (paper §4.4: partitioning on the
/// unique id, no repartitioning needed for (ID, Node) grouping).
struct PartitionRange {
  int64_t begin = 0;
  int64_t end = 0;  // exclusive
};

/// \brief In-memory columnar table.
///
/// After loading, call `Finalize()` to compute per-block MinMax statistics
/// and freeze the contents. `sorted_by` documents a physical sort order the
/// loader guarantees (e.g. the model table sorted by node id); the optimizer
/// uses it to replace hash aggregation with order-based aggregation.
class Table {
 public:
  Table(std::string name, std::vector<Field> fields);

  const std::string& name() const { return name_; }
  const std::vector<Field>& fields() const { return fields_; }
  int64_t num_columns() const { return static_cast<int64_t>(fields_.size()); }
  int64_t num_rows() const { return num_rows_; }

  /// Index of the column named `name`, or error.
  Result<int> ColumnIndex(const std::string& name) const;

  Column& column(int i) { return columns_[static_cast<size_t>(i)]; }
  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }

  /// Appends one row given as a value list matching the schema.
  Status AppendRow(const std::vector<Value>& values);

  /// Bulk reserve for n additional rows.
  void Reserve(int64_t n);

  /// Marks loading finished: rows counted, block statistics computed.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Per-block MinMax stats for column `col`; valid after Finalize().
  const std::vector<BlockStats>& block_stats(int col) const {
    return stats_[static_cast<size_t>(col)];
  }
  int64_t rows_per_block() const { return rows_per_block_; }
  int64_t num_blocks() const {
    return (num_rows_ + rows_per_block_ - 1) / rows_per_block_;
  }

  /// Declares that rows are physically sorted by these columns
  /// (lexicographically, ascending). Must be set by the loader truthfully;
  /// `Finalize` validates the claim in debug builds.
  void SetSortedBy(std::vector<std::string> columns) { sorted_by_ = std::move(columns); }
  const std::vector<std::string>& sorted_by() const { return sorted_by_; }

  /// Declares the unique row-identifier column (paper §4.2). Partitioning is
  /// aligned with it (contiguous row ranges = contiguous id ranges when the
  /// loader appends rows in id order), which is what makes per-partition
  /// aggregation on id-rooted grouping keys repartitioning-free (§4.4).
  void SetUniqueIdColumn(std::string name) { unique_id_column_ = std::move(name); }
  const std::string& unique_id_column() const { return unique_id_column_; }

  /// Total bytes held by all columns.
  int64_t MemoryBytes() const;

 private:
  std::string name_;
  std::vector<Field> fields_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
  bool finalized_ = false;
  int64_t rows_per_block_ = kRowsPerBlock;
  std::vector<std::vector<BlockStats>> stats_;
  std::vector<std::string> sorted_by_;
  std::string unique_id_column_;
};

using TablePtr = std::shared_ptr<Table>;

/// \brief Thread-safe name → table registry (the database catalog).
///
/// The map is guarded; the Table objects handed out are shared_ptrs whose
/// contents are frozen by Finalize() before registration, so readers never
/// race table mutation through the catalog.
class Catalog {
 public:
  /// Registers a table; fails if the name exists.
  Status CreateTable(TablePtr table) INDBML_EXCLUDES(mu_);

  /// Replaces or registers a table.
  void CreateOrReplaceTable(TablePtr table) INDBML_EXCLUDES(mu_);

  Result<TablePtr> GetTable(const std::string& name) const INDBML_EXCLUDES(mu_);
  Status DropTable(const std::string& name) INDBML_EXCLUDES(mu_);
  std::vector<std::string> ListTables() const INDBML_EXCLUDES(mu_);

  /// Monotonically increasing schema version, bumped by every DDL mutation
  /// (create / replace / drop). Cached plans key on it: a plan bound against
  /// version v is stale once the catalog reports a later version
  /// (server/plan_cache.h).
  int64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Explicit bump for DDL-like mutations that do not go through the table
  /// map — a model DEPLOY re-registering metadata must invalidate cached
  /// plans bound against the old model version (ModelMetaRegistry wires its
  /// mutation callback here).
  void BumpVersion() { version_.fetch_add(1, std::memory_order_release); }

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, TablePtr> tables_ INDBML_GUARDED_BY(mu_);
  /// lock-free: release on bump / acquire on read, so a reader that sees the
  /// new version also sees the table map change that caused it published by
  /// the mutex release preceding the bump.
  std::atomic<int64_t> version_{0};
};

}  // namespace indbml::storage

#endif  // INDBML_STORAGE_TABLE_H_
