#ifndef INDBML_EXEC_OPERATOR_H_
#define INDBML_EXEC_OPERATOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/expression.h"
#include "exec/query_result.h"
#include "exec/vector.h"
#include "storage/table.h"

namespace indbml::exec {

struct OperatorStats;

/// Per-execution state passed down the operator tree.
struct ExecContext {
  storage::Catalog* catalog = nullptr;
  /// Worker running this operator-tree instance: the pipeline worker slot
  /// in [0, num_workers), 0 for a serial drain (paper §4.4: each execution
  /// thread gets a private query plan).
  int worker_id = 0;
  /// Row range of the morsel the executor is about to run (set before every
  /// Rewind call); morsel_index is the morsel's position in global row
  /// order, -1 outside morsel-driven execution.
  int64_t morsel_begin = 0;
  int64_t morsel_end = 0;
  int64_t morsel_index = -1;
  /// Stats slot of the operator currently being profiled (set by
  /// ProfiledOperator around each Open/Next/Close call, null when the query
  /// runs without EXPLAIN ANALYZE). Operator bodies use it to report named
  /// sub-phase timings, see exec/profile.h.
  OperatorStats* active_stats = nullptr;
  /// Query-level cancellation flag (the serving executor wires it to
  /// QueryHandle::Cancel; null outside the serving path). Operators that
  /// block — the inference batcher's latency-budget wait — poll it so
  /// Cancel returns promptly instead of riding out the wait.
  const std::atomic<bool>* interrupt = nullptr;
};

/// \brief Volcano-style vectorized operator (open/next/close, paper §5.1),
/// producing DataChunks of up to kDefaultVectorSize rows.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Output column types; stable after construction.
  virtual const std::vector<DataType>& output_types() const = 0;
  /// Output column names (diagnostics + result labels).
  virtual const std::vector<std::string>& output_names() const = 0;

  virtual Status Open(ExecContext* ctx) = 0;

  /// Produces the next chunk into `out` (already Reset to output_types by
  /// the caller); sets `*eof` when exhausted (out may still carry rows on
  /// the eof call only if size > 0).
  virtual Status Next(ExecContext* ctx, DataChunk* out, bool* eof) = 0;

  virtual void Close(ExecContext* /*ctx*/) {}

  /// Re-arms an *open* operator tree for the next morsel (exec/morsel.h):
  /// streaming state is reset so Next() produces the rows of the morsel
  /// range in `ctx`, while expensive once-per-query state (a ModelJoin's
  /// built model, a hash join's build table over a non-morsel side) is
  /// kept. Called by the pipeline executor between Open and Close, before
  /// every morsel including the first. The default refuses, so an operator
  /// that never audited its state cannot silently return stale rows.
  virtual Status Rewind(ExecContext* ctx);

  /// True if this subtree contains a morsel-bound scan, i.e. Rewind changes
  /// which base rows the subtree produces. Joins use it to decide whether a
  /// materialised side must be rebuilt per morsel.
  virtual bool MorselDriven() const { return false; }
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Runs an operator tree to completion and materialises all chunks.
Result<QueryResult> DrainOperator(Operator* root, ExecContext* ctx);

/// Drains an *already open* operator into `result` (appends chunks; does
/// not Open or Close). Used by the pipeline executor per morsel.
Status DrainAppend(Operator* root, ExecContext* ctx, QueryResult* result);

/// Drains an *already open* operator into one flat owned column per output
/// column (`*columns` is reset to the operator's output types) and sets
/// `*rows` to the row count. The materialising step of the operators that
/// keep a whole child (hash-join build, cross-join right side, sort): they
/// then address any row by an int32 index and emit through GatherIndexed,
/// so more than 2^31 - 1 rows fail with NotImplemented.
Status DrainColumns(Operator* root, ExecContext* ctx, std::vector<Vector>* columns,
                    int64_t* rows);

/// A chunk viewing `columns` (no copy), `rows` rows long, for evaluating
/// expressions over DrainColumns output.
DataChunk ColumnsChunk(const std::vector<Vector>& columns, int64_t rows);

}  // namespace indbml::exec

#endif  // INDBML_EXEC_OPERATOR_H_
