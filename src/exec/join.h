#ifndef INDBML_EXEC_JOIN_H_
#define INDBML_EXEC_JOIN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/gather.h"
#include "exec/operator.h"

namespace indbml::exec {

/// Evaluates `keys` over `chunk` into normalised key columns
/// (`(*norm_keys)[k][row]`, see NormalizeKeys) and folds keys
/// [hash_from, keys.size()) into per-row hashes (HashKeyColumn); a null
/// `hashes` only normalises. The one key path of hash join and hash
/// aggregation, so both agree on key equality.
Status NormalizeAndHashKeys(const std::vector<ExprPtr>& keys, const DataChunk& chunk,
                           size_t hash_from,
                           std::vector<std::vector<uint64_t>>* norm_keys,
                           std::vector<uint64_t>* hashes);

/// \brief The work of an inner hash join, shared by HashJoinOperator and
/// GroupJoinOperator: it owns both children, builds the hash table from the
/// build child, and streams the matching (probe row, build row) pairs.
///
/// The right child is the build side (drained into flat columns and a hash
/// table on first use — the ModelJoin pattern joins a small model table on
/// the build side against a streaming fact/intermediate probe side, paper
/// Fig. 5). Pairs come in probe order, and the matches of one probe row in
/// build order; the optimizer relies on the former to keep pipelines
/// eligible for order-based aggregation (§4.4).
///
/// The table is a power-of-two array of bucket heads over entries chained
/// through `next_`, each entry with its NormalizeKeys words and hash stored
/// column-wise. The build chooses what an entry is from the key repetition
/// it measures on a sample of its rows (KeysRepeat):
///  - *key runs* where most build keys repeat (the model tables of the
///    ML-To-SQL layer joins): entries are the distinct keys, numbered in
///    first-seen order, and all build rows of one key sit next to each
///    other in build_columns(), in build order, from `run_start_[key]` on.
///    A probe row's matches are then one run, found with a single
///    hash-and-key comparison. A build whose equal keys are already adjacent
///    is not moved; otherwise a stable counting sort on the key numbers
///    moves its rows.
///  - *row chains* otherwise (unique-key builds among them): entries are the
///    build rows, in place, chained in build order; each match is a run of
///    one row.
/// Pairs come out as PairRuns (probe row, first build row, length), up to
/// the caller's room; a cursor (probe row, chain entry or position in its
/// run) resumes a probe row whose matches straddle a batch cut.
class HashJoinPairs {
 public:
  HashJoinPairs(OperatorPtr probe, OperatorPtr build, std::vector<ExprPtr> probe_keys,
                std::vector<ExprPtr> build_keys);

  HashJoinPairs(const HashJoinPairs&) = delete;
  HashJoinPairs& operator=(const HashJoinPairs&) = delete;

  const Operator& probe() const { return *probe_; }
  const Operator& build() const { return *build_; }

  /// Opens both children; the build side is drained lazily by the first
  /// EnsureBuilt, so morsel Rewinds can re-target a morsel-driven build
  /// child before any materialisation happens.
  Status Open(ExecContext* ctx);
  /// Rewinds the probe side; the build state survives unless the build side
  /// itself is morsel-driven, in which case it is dropped and rebuilt.
  Status Rewind(ExecContext* ctx);
  void Close(ExecContext* ctx);
  bool MorselDriven() const { return probe_->MorselDriven() || build_->MorselDriven(); }

  /// Drains the (already open) build child into the hash table.
  Status EnsureBuilt(ExecContext* ctx);
  bool built() const { return built_; }

  /// Collects up to `room` (0 < room <= kDefaultVectorSize) matching pairs
  /// of one probe chunk into runs(), fetching probe chunks as needed; `*n`
  /// is the number of pairs, 0 only once the probe side is exhausted.
  /// Builds the table first if needed.
  Status Next(ExecContext* ctx, int64_t room, int64_t* n);
  bool eof() const { return probe_eof_ && !probe_chunk_valid_; }

  /// Probe chunks fetched so far; changes whenever probe_chunk() does.
  int64_t probe_chunks() const { return probe_chunks_; }
  /// The probe chunk and the (key-grouped) build columns the last batch's
  /// runs index.
  const DataChunk& probe_chunk() const { return probe_chunk_; }
  const std::vector<Vector>& build_columns() const { return build_columns_; }
  int64_t build_rows() const { return build_rows_; }
  /// The last batch's pairs, as runs in probe order.
  PairRuns runs() const {
    return {run_probe_.data(), run_build_.data(), run_length_.data(), num_runs_,
            num_pairs_};
  }
  /// Whether the current build is laid out in key runs (else row chains).
  bool key_runs() const { return !run_start_.empty(); }

  /// Bytes held by the build side: columns plus hash table (memory
  /// experiments).
  int64_t BuildBytes() const;

 private:
  void ClearBuild();
  /// Chains the build rows per bucket, in build order.
  void ChainRows();
  /// Whether the build's keys repeat enough for key runs (see
  /// kRunRowsPerKey), measured on the row chains.
  bool KeysRepeat() const;
  /// Numbers the distinct keys of the build rows in first-seen order: moves
  /// key k's words and hash to entry k, chains the keys into heads_/next_,
  /// leaves key k's first row in run_start_[k] and every build row's key in
  /// `*row_key`. Returns whether equal keys are already adjacent.
  bool NumberKeys(std::vector<int32_t>* row_key);
  /// Releases the per-row capacity of the key arrays and sizes the bucket
  /// array for the distinct keys.
  void CompactKeys();
  /// Moves the build rows into key runs, stably, and sets run_start_.
  void GroupRows(const std::vector<int32_t>& row_key);
  /// Normalises and hashes the keys of the freshly fetched probe chunk.
  Status PrepareProbeChunk();
  /// Collects up to `room` matching pairs from the cursor on into the run
  /// arrays and advances the cursor.
  int64_t CollectMatches(int64_t room);
  /// Bytes of the hash table (heads, key links, hashes, words, run starts).
  int64_t TableBytes() const;
  /// Reports the table and the probe-side key, hash and run arrays to the
  /// MemoryTracker.
  void Track();

  OperatorPtr probe_;
  OperatorPtr build_;
  std::vector<ExprPtr> probe_keys_;
  std::vector<ExprPtr> build_keys_;

  // Build side: one flat column per build column (in key-run order with key
  // runs), plus the table.
  std::vector<Vector> build_columns_;
  int64_t build_rows_ = 0;
  std::vector<std::vector<uint64_t>> words_;  ///< [key column][entry]
  std::vector<uint64_t> hashes_;              ///< [entry]
  std::vector<int32_t> next_;   ///< [entry] next entry of its bucket, -1 at end
  std::vector<int32_t> heads_;  ///< [bucket] first entry, -1 if empty
  int bucket_shift_ = 63;       ///< bucket = hash >> bucket_shift_
  /// Key runs only: [key] first build row of the key's run; [keys] = rows.
  /// Empty with row chains.
  std::vector<int32_t> run_start_;
  TrackedBytes tracked_;  ///< TableBytes plus the probe-side arrays
  bool built_ = false;

  // Probe streaming state.
  DataChunk probe_chunk_;
  std::vector<std::vector<uint64_t>> probe_norm_keys_;  ///< [key][probe row]
  std::vector<uint64_t> probe_hashes_;
  // The last batch's pairs: [run] probe row, first build row and length.
  std::vector<int32_t> run_probe_;
  std::vector<int32_t> run_build_;
  std::vector<int32_t> run_length_;
  int64_t num_runs_ = 0;
  int64_t num_pairs_ = 0;
  int64_t probe_row_ = 0;
  /// Where probe_row_'s matches resume, -1 = at its bucket head: the chain
  /// entry with row chains, the build row (and its run's end) with key runs.
  int32_t run_row_ = -1;
  int32_t run_end_ = -1;
  int64_t probe_chunks_ = 0;
  bool probe_eof_ = false;
  bool probe_chunk_valid_ = false;
};

/// \brief Inner hash join: emits the pairs of HashJoinPairs as rows of
/// probe columns followed by build columns, gathered run by run
/// (GatherProbeRuns, GatherBuildRuns), in chunks of exactly
/// kDefaultVectorSize rows until the last.
///
/// Key expressions are evaluated against the respective child's chunks.
/// Residual (non-equi) predicates are planned as a Filter above the join.
class HashJoinOperator final : public Operator {
 public:
  HashJoinOperator(OperatorPtr probe, OperatorPtr build,
                   std::vector<ExprPtr> probe_keys, std::vector<ExprPtr> build_keys);

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(ExecContext* ctx) override { return pairs_.Open(ctx); }
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override { pairs_.Close(ctx); }
  Status Rewind(ExecContext* ctx) override { return pairs_.Rewind(ctx); }
  bool MorselDriven() const override { return pairs_.MorselDriven(); }

  int64_t BuildBytes() const { return pairs_.BuildBytes(); }

 private:
  HashJoinPairs pairs_;
  std::vector<DataType> types_;
  std::vector<std::string> names_;
};

/// \brief Cross join: materialises the right side and emits left x right in
/// left-major order (order-preserving in the left input, paper §4.4).
/// Each output batch gathers a repeated left row index against a run of
/// right row indexes.
class CrossJoinOperator final : public Operator {
 public:
  CrossJoinOperator(OperatorPtr left, OperatorPtr right);

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override;
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override {
    return left_->MorselDriven() || right_->MorselDriven();
  }

 private:
  /// Materialises the (already open) right child on the first Next after
  /// Open; kept across Rewinds unless the right side is morsel-driven.
  Status EnsureMaterialized(ExecContext* ctx);

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<DataType> types_;
  std::vector<std::string> names_;

  std::vector<Vector> right_columns_;
  int64_t right_rows_ = 0;
  bool right_materialized_ = false;

  DataChunk left_chunk_;
  std::vector<int32_t> left_sel_;  ///< gather indices of one output batch
  std::vector<int32_t> right_sel_;
  int64_t left_row_ = 0;
  int64_t right_row_ = 0;
  bool left_eof_ = false;
  bool left_chunk_valid_ = false;
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_JOIN_H_
