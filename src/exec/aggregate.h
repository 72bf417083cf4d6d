#ifndef INDBML_EXEC_AGGREGATE_H_
#define INDBML_EXEC_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/operator.h"

namespace indbml::exec {

enum class AggFunction { kSum, kCount, kMin, kMax, kAvg };

const char* AggFunctionName(AggFunction fn);

/// One aggregate to compute: FUNCTION(argument). For COUNT(*) the argument
/// is null.
struct AggregateSpec {
  AggFunction function;
  ExprPtr argument;  ///< nullable for COUNT(*)
  DataType result_type;
  std::string name;
};

/// Running state of one aggregate within one group. Float and bool
/// arguments, and every AVG, accumulate in double, in row order, so float
/// summation matches the BLAS reference closely; SUM/MIN/MAX over BIGINT
/// accumulate exactly in int64 (a SUM wraps like BIGINT `+`).
struct AggState {
  int64_t count = 0;  ///< rows seen (COUNT, AVG's divisor, MIN/MAX's "any")
  double d = 0;       ///< double sum or running MIN/MAX
  int64_t i = 0;      ///< int64 sum or running MIN/MAX
};

/// \brief Typed group table shared by both aggregation operators.
///
/// Group keys are stored column-wise as NormalizeKeys words (so -0.0 and
/// 0.0 are one group, as in the hash join) with one hash per group, found
/// by linear probing over a power-of-two slot array. Groups are numbered in
/// first-seen order, which is also the emission order, and their aggregate
/// state is one AggState array indexed [group * aggregates + a]. The table
/// reports the bytes of its slots, hashes, keys and states to the
/// MemoryTracker.
class GroupTable {
 public:
  GroupTable(size_t num_keys, const std::vector<AggregateSpec>& aggs);

  GroupTable(const GroupTable&) = delete;
  GroupTable& operator=(const GroupTable&) = delete;

  int64_t size() const { return num_groups_; }
  /// Normalised key `k` of every group, indexed by group id.
  const uint64_t* keys(size_t k) const { return keys_[k].data(); }
  /// The HashKeyColumn hash of every group, indexed by group id.
  const uint64_t* hashes() const { return hashes_.data(); }

  /// Finds or inserts the group of each of `n` rows: `keys[k][i]` is row
  /// i's normalised key k and `hashes[i]` its HashKeyColumn hash. Writes
  /// the group ids to `gids[0..n)`.
  void FindOrInsert(const uint64_t* const* keys, const uint64_t* hashes, int64_t n,
                    int32_t* gids);

  /// Appends `n` new groups without indexing them for FindOrInsert: group
  /// size() + i gets keys `keys[k][rows[i]]` and hash `hashes[rows[i]]`.
  /// For callers that identify their groups themselves (GroupJoinOperator
  /// by dense build-side ids); a table filled this way must not be probed
  /// with FindOrInsert before the next Clear.
  void AppendGroups(const uint64_t* const* keys, const uint64_t* hashes,
                    const int32_t* rows, int64_t n);

  /// Adds rows [begin, begin + n) of the flat argument vectors (`args[a]`
  /// is ignored for COUNT) to the groups `gids[0..n)`.
  void Update(const std::vector<Vector>& args, int64_t begin, int64_t n,
              const int32_t* gids);

  /// Writes groups [first, first + n) as output rows [row, row + n):
  /// keys into columns col, col+1, ..., finalised aggregates after them.
  void Emit(int64_t first, int64_t n, int64_t col, int64_t row, DataChunk* out) const;

  /// Drops every group; capacity (and its tracked bytes) is kept.
  void Clear();

 private:
  /// How an aggregate accumulates (fixed per aggregate by its function and
  /// argument type).
  enum class Mode { kCount, kSum, kAvg, kMin, kMax, kSumInt, kMinInt, kMaxInt };

  static constexpr int kInitialSlotShift = 60;  ///< 16 slots

  /// Appends row `row` as a new group at the empty slot `slot` (re-found if
  /// the table grows first); returns its id.
  int32_t Insert(const uint64_t* const* keys, int64_t row, uint64_t h, size_t slot);
  void Grow();
  void Track();

  std::vector<Mode> modes_;
  std::vector<std::vector<uint64_t>> keys_;  ///< [key][group]
  std::vector<uint64_t> hashes_;             ///< [group]
  std::vector<AggState> states_;             ///< [group * aggregates + a]
  std::vector<int32_t> slots_;               ///< group id, -1 if empty
  int slot_shift_;                           ///< slot = hash >> slot_shift_
  int64_t num_groups_ = 0;
  bool unindexed_ = false;  ///< holds groups added by AppendGroups
  TrackedBytes tracked_;
};

/// Evaluates the aggregates' arguments over `in` into flat vectors (the
/// vector of a COUNT(*) stays empty).
Status EvaluateAggregateArgs(const std::vector<AggregateSpec>& aggs,
                             const DataChunk& in, std::vector<Vector>* args);

/// \brief The per-prefix state of order-based aggregation (paper §4.4),
/// shared by StreamingAggregateOperator and GroupJoinOperator: the
/// normalised keys of the current prefix, a GroupTable of its groups by the
/// remaining keys, and the flush that emits those groups once the prefix
/// ends, resuming when an output chunk fills up.
class PrefixGroups {
 public:
  PrefixGroups(size_t prefix_keys, size_t rest_keys,
               const std::vector<AggregateSpec>& aggs);

  GroupTable& table() { return table_; }
  bool active() const { return active_; }
  bool flushing() const { return flushing_; }
  /// Peak number of groups held at once since the last ResetPeak.
  int64_t peak_group_count() const { return peak_group_count_; }

  /// Returns the end of the run of rows [begin, end') with end' <= `end`
  /// whose prefix keys `keys[k][row]` (k < prefix keys) equal the current
  /// prefix. With no prefix active, row `begin` starts one.
  int64_t Run(const std::vector<std::vector<uint64_t>>& keys, int64_t begin,
              int64_t end);
  /// Whether row `row`'s prefix keys equal the current prefix; with no
  /// prefix active, the row starts one.
  bool Continues(const std::vector<std::vector<uint64_t>>& keys, int64_t row) {
    return Run(keys, row, row + 1) > row;
  }
  /// GroupTable::Update on the current prefix's groups.
  void Update(const std::vector<Vector>& args, int64_t begin, int64_t n,
              const int32_t* gids);
  /// Ends the current prefix; EmitFlush then emits its groups.
  void Finish() {
    flushing_ = true;
    flush_cursor_ = 0;
  }
  /// Emits the finished prefix's groups from the flush cursor on, as many as
  /// fit into `out` (prefix keys first, then rest keys and aggregates).
  /// Returns true once all are out; the table is then empty and no prefix
  /// is active.
  bool EmitFlush(DataChunk* out);
  /// Drops the current prefix and its groups (Open/Rewind).
  void Reset();
  void ResetPeak() { peak_group_count_ = 0; }

 private:
  GroupTable table_;
  std::vector<uint64_t> prefix_;  ///< normalised keys of the current prefix
  bool active_ = false;
  bool flushing_ = false;
  int64_t flush_cursor_ = 0;
  int64_t peak_group_count_ = 0;
};

/// \brief Hash-based grouped aggregation (pipeline breaker): the default
/// physical choice when the input carries no usable order. Emits groups in
/// first-seen order.
class HashAggregateOperator final : public Operator {
 public:
  HashAggregateOperator(OperatorPtr child, std::vector<ExprPtr> groups,
                        std::vector<std::string> group_names,
                        std::vector<AggregateSpec> aggregates);

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override { child_->Close(ctx); }
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override { return child_->MorselDriven(); }

 private:
  /// Drains the (already open) child into the group table. Runs lazily on
  /// the first Next after Open/Rewind so each morsel aggregates only its
  /// own rows.
  Status Consume(ExecContext* ctx);

  OperatorPtr child_;
  std::vector<ExprPtr> groups_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<DataType> types_;
  std::vector<std::string> names_;

  GroupTable table_;
  int64_t emit_cursor_ = 0;
  bool consumed_ = false;
  DataChunk in_;  ///< reused input buffer (no per-batch reallocation)
};

/// \brief Order-based (streaming) aggregation (paper §4.4).
///
/// The first `prefix_count` group keys are guaranteed by the optimizer to be
/// a sorted/grouped prefix of the input (all rows with equal prefix values
/// arrive contiguously, e.g. the unique tuple ID after an order-preserving
/// join). The remaining keys are hashed *within* the current prefix group
/// (a GroupTable), and all groups of a prefix are emitted as soon as the
/// prefix changes.
///
/// With prefix_count == #groups this degenerates to a classic order-based
/// aggregation with O(1) state; with a shorter prefix the state is bounded
/// by the number of distinct remaining-key values per prefix group (one
/// layer's node count in the ModelJoin queries) instead of the whole input —
/// which is what makes the generated inference pipeline low-memory and
/// fully pipelined. Output chunks hold at most kDefaultVectorSize rows; a
/// flush that does not fit resumes on the next call.
class StreamingAggregateOperator final : public Operator {
 public:
  StreamingAggregateOperator(OperatorPtr child, std::vector<ExprPtr> groups,
                             std::vector<std::string> group_names,
                             std::vector<AggregateSpec> aggregates, int prefix_count);

  const std::vector<DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override { child_->Close(ctx); }
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override { return child_->MorselDriven(); }

  /// Peak number of concurrently-held groups (memory observability).
  int64_t peak_group_count() const { return prefix_groups_.peak_group_count(); }

 private:
  void ResetStream();

  OperatorPtr child_;
  std::vector<ExprPtr> groups_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<DataType> types_;
  std::vector<std::string> names_;
  int prefix_count_;

  PrefixGroups prefix_groups_;  ///< the current prefix and its groups
  bool input_eof_ = false;

  DataChunk in_;  ///< input chunk being consumed (kept across calls)
  int64_t in_row_ = 0;
  std::vector<std::vector<uint64_t>> norm_keys_;  ///< [key][row] of in_
  std::vector<uint64_t> hashes_;                  ///< rest-key hashes of in_
  std::vector<Vector> args_;                      ///< aggregate args of in_
  std::vector<int32_t> gids_;
  TrackedBytes tracked_;  ///< norm_keys_, hashes_ and gids_
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_AGGREGATE_H_
