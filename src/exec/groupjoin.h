#ifndef INDBML_EXEC_GROUPJOIN_H_
#define INDBML_EXEC_GROUPJOIN_H_

#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/join.h"
#include "exec/profile.h"

namespace indbml::exec {

/// \brief Order-based aggregation fused into the hash join below it
/// (a groupjoin, Moerkotte & Neumann, VLDB 2011).
///
/// Computes exactly what StreamingAggregateOperator over HashJoinOperator
/// computes — the same rows, in the same order and chunk cuts, with every
/// value bit-identical — for the shape every ML-To-SQL layer block has
/// (paper §4.3–4.4): the sorted prefix keys are probe columns and the
/// remaining group keys are build columns. Within one prefix, a pair's
/// group then depends only on its build row. So the operator numbers the
/// distinct rest-key tuples of the build side once per build (a GroupTable
/// over the build rows) and consumes the HashJoinPairs of each probe chunk
/// run by run: all pairs of one run share a probe row, hence its prefix,
/// which is compared once per run, and a key-contiguous range of build
/// rows, whose dense ids map to the prefix's groups in first-seen order
/// (new groups are appended to the prefix's table without hashing). The
/// narrow argument chunk is filled per run (the probe value repeated, the
/// build range copied), the arguments are evaluated with EvaluateExpr, and
/// they are summed through GroupTable::Update in probe order, then build
/// order, as the unfused pair does. No joined chunk is built.
///
/// Column indexes: `prefix_keys` are bound to the probe side and `rest_keys`
/// are column references of the build side. The aggregate arguments are
/// bound to a narrow chunk of `probe_columns` (probe-side positions)
/// followed by `build_columns` (build-side positions).
///
/// Profiling: with a non-null `profile` the operator also fills the stats of
/// the join node `join_node` it replaces. Its rows are the pairs walked; its
/// times cover the join's own work (build, probe fetch and run walk) and
/// every call into the children, so the join's time stays inclusive of its
/// children and the aggregate node keeps gather, evaluation, accumulation
/// and emission as its self time. The join node's `groupjoin` phase is the
/// part spent fetching probe chunks and walking their pairs; it also marks
/// the join as fused in EXPLAIN ANALYZE. The aggregate node's `gather`,
/// `evaluate` and `update` phases split its self time into filling the
/// narrow chunk, evaluating the arguments, and assigning groups plus
/// accumulating.
class GroupJoinOperator final : public Operator {
 public:
  GroupJoinOperator(OperatorPtr probe, OperatorPtr build, std::vector<ExprPtr> probe_keys,
                    std::vector<ExprPtr> build_keys, std::vector<int> probe_columns,
                    std::vector<int> build_columns, std::vector<ExprPtr> prefix_keys,
                    std::vector<ExprPtr> rest_keys, std::vector<std::string> group_names,
                    std::vector<AggregateSpec> aggregates, QueryProfile* profile = nullptr,
                    int join_node = -1);

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override;
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override { return pairs_.MorselDriven(); }

 private:
  /// The join node's stats slot of this worker, null when not profiled.
  OperatorStats* JoinStats(const ExecContext* ctx) const;
  /// The aggregate node's stats slot (the call in flight), null when not
  /// profiled.
  OperatorStats* AggregateStats(const ExecContext* ctx) const;
  void ResetStream();
  /// Reports the dense ids, the group map and the per-chunk prefix keys and
  /// group ids to the MemoryTracker.
  void Track();
  /// Builds the join table and numbers the build rows' rest-key tuples.
  Status Build(ExecContext* ctx);
  /// Walks the next batch of pairs, normalises the prefix keys of a new
  /// probe chunk and evaluates the batch's aggregate arguments; batch_size_
  /// is 0 once the probe side is done.
  Status NextBatch(ExecContext* ctx);
  /// Aggregates the batch's runs from batch_run_ on that continue the
  /// current prefix; returns whether the batch ended inside the prefix.
  bool AggregatePrefixRuns();
  /// Forgets the current prefix's dense id -> group mapping.
  void ClearGroupMap();

  HashJoinPairs pairs_;
  std::vector<int> probe_columns_;
  std::vector<int> build_columns_;
  std::vector<ExprPtr> prefix_keys_;
  std::vector<ExprPtr> rest_keys_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<DataType> types_;
  std::vector<std::string> names_;
  QueryProfile* profile_;
  int join_node_;

  // Build side: the dense ids of the build rows' rest-key tuples.
  GroupTable rest_ids_;          ///< distinct rest-key tuples, no aggregates
  std::vector<int32_t> dense_;   ///< [build row] dense id of its rest keys
  std::vector<int32_t> group_of_dense_;  ///< [dense id] group in the prefix, -1
  std::vector<int32_t> dense_of_group_;  ///< [group] its dense id
  std::vector<const uint64_t*> rest_ptrs_;  ///< rest_ids_' key columns

  PrefixGroups prefix_groups_;

  // The current batch of pairs.
  std::vector<DataType> narrow_types_;
  DataChunk narrow_;  ///< gathered probe_columns_ then build_columns_
  int64_t batch_size_ = 0;   ///< pairs in the batch
  int64_t batch_run_ = 0;    ///< next run of pairs_.runs() to aggregate
  int64_t batch_row_ = 0;    ///< its first pair
  int64_t prefix_chunk_ = -1;  ///< probe chunk prefix_norm_ belongs to
  std::vector<std::vector<uint64_t>> prefix_norm_;  ///< [key][probe row]
  std::vector<Vector> args_;                        ///< [aggregate][pair]
  std::vector<int32_t> gids_;                       ///< [pair]
  TrackedBytes tracked_;
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_GROUPJOIN_H_
