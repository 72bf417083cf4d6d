#include "exec/groupjoin.h"

#include "common/config.h"
#include "exec/gather.h"

namespace indbml::exec {

GroupJoinOperator::GroupJoinOperator(
    OperatorPtr probe, OperatorPtr build, std::vector<ExprPtr> probe_keys,
    std::vector<ExprPtr> build_keys, std::vector<int> probe_columns,
    std::vector<int> build_columns, std::vector<ExprPtr> prefix_keys,
    std::vector<ExprPtr> rest_keys, std::vector<std::string> group_names,
    std::vector<AggregateSpec> aggregates, QueryProfile* profile, int join_node)
    : pairs_(std::move(probe), std::move(build), std::move(probe_keys),
             std::move(build_keys)),
      probe_columns_(std::move(probe_columns)),
      build_columns_(std::move(build_columns)),
      prefix_keys_(std::move(prefix_keys)),
      rest_keys_(std::move(rest_keys)),
      aggregates_(std::move(aggregates)),
      names_(std::move(group_names)),
      profile_(profile),
      join_node_(join_node),
      rest_ids_(rest_keys_.size(), {}),
      rest_ptrs_(rest_keys_.size()),
      prefix_groups_(prefix_keys_.size(), rest_keys_.size(), aggregates_) {
  INDBML_CHECK(!prefix_keys_.empty()) << "a groupjoin needs a sorted prefix key";
  for (const auto& k : prefix_keys_) types_.push_back(k->type);
  for (const auto& k : rest_keys_) types_.push_back(k->type);
  for (const auto& a : aggregates_) {
    types_.push_back(a.result_type);
    names_.push_back(a.name);
  }
  for (int c : probe_columns_) {
    narrow_types_.push_back(pairs_.probe().output_types()[static_cast<size_t>(c)]);
  }
  for (int c : build_columns_) {
    narrow_types_.push_back(pairs_.build().output_types()[static_cast<size_t>(c)]);
  }
}

void GroupJoinOperator::Track() {
  int64_t bytes = CapacityBytes(dense_) + CapacityBytes(group_of_dense_) +
                  CapacityBytes(dense_of_group_) + CapacityBytes(gids_);
  for (const auto& col : prefix_norm_) bytes += CapacityBytes(col);
  tracked_.Set(bytes);
}

OperatorStats* GroupJoinOperator::JoinStats(const ExecContext* ctx) const {
  return profile_ == nullptr ? nullptr : profile_->slot(join_node_, ctx->worker_id);
}

OperatorStats* GroupJoinOperator::AggregateStats(const ExecContext* ctx) const {
  return profile_ == nullptr ? nullptr : ctx->active_stats;
}

void GroupJoinOperator::ResetStream() {
  prefix_groups_.Reset();
  ClearGroupMap();
  args_.clear();
  batch_size_ = 0;
  batch_run_ = 0;
  batch_row_ = 0;
  prefix_chunk_ = -1;
}

Status GroupJoinOperator::Open(ExecContext* ctx) {
  ResetStream();
  OperatorStats* join = JoinStats(ctx);
  ScopedNanos timer(join != nullptr ? &join->open_nanos : nullptr);
  return pairs_.Open(ctx);
}

Status GroupJoinOperator::Rewind(ExecContext* ctx) {
  ResetStream();
  OperatorStats* join = JoinStats(ctx);
  ScopedNanos timer(join != nullptr ? &join->rewind_nanos : nullptr);
  return pairs_.Rewind(ctx);
}

void GroupJoinOperator::Close(ExecContext* ctx) {
  OperatorStats* join = JoinStats(ctx);
  ScopedNanos timer(join != nullptr ? &join->close_nanos : nullptr);
  pairs_.Close(ctx);
}

Status GroupJoinOperator::Build(ExecContext* ctx) {
  INDBML_RETURN_NOT_OK(pairs_.EnsureBuilt(ctx));
  const int64_t rows = pairs_.build_rows();
  std::vector<std::vector<uint64_t>> norm_keys;  // [key][build row]
  std::vector<uint64_t> hashes;                  // [build row]
  INDBML_RETURN_NOT_OK(NormalizeAndHashKeys(
      rest_keys_, ColumnsChunk(pairs_.build_columns(), rows), 0, &norm_keys, &hashes));
  for (size_t k = 0; k < rest_keys_.size(); ++k) rest_ptrs_[k] = norm_keys[k].data();
  rest_ids_.Clear();
  dense_.resize(static_cast<size_t>(rows));
  rest_ids_.FindOrInsert(rest_ptrs_.data(), hashes.data(), rows, dense_.data());
  // From here on the rest keys are read per dense id, from rest_ids_.
  for (size_t k = 0; k < rest_keys_.size(); ++k) rest_ptrs_[k] = rest_ids_.keys(k);
  group_of_dense_.assign(static_cast<size_t>(rest_ids_.size()), -1);
  dense_of_group_.clear();
  // A prefix holds at most one group per dense id.
  dense_of_group_.reserve(group_of_dense_.size());
  gids_.resize(kDefaultVectorSize);
  Track();
  return Status::OK();
}

void GroupJoinOperator::ClearGroupMap() {
  for (int32_t d : dense_of_group_) group_of_dense_[static_cast<size_t>(d)] = -1;
  dense_of_group_.clear();
}

Status GroupJoinOperator::NextBatch(ExecContext* ctx) {
  // Drop the previous batch's argument views first, so Reset can reuse the
  // narrow chunk's buffers.
  args_.clear();
  batch_run_ = 0;
  batch_row_ = 0;
  batch_size_ = 0;
  OperatorStats* join = JoinStats(ctx);
  {
    ScopedNanos timer(join != nullptr ? &join->next_nanos : nullptr);
    if (!pairs_.built()) INDBML_RETURN_NOT_OK(Build(ctx));
    ScopedNanos walk(join != nullptr ? &join->phase_nanos["groupjoin"] : nullptr);
    INDBML_RETURN_NOT_OK(pairs_.Next(ctx, kDefaultVectorSize, &batch_size_));
  }
  const int64_t n = batch_size_;
  if (n == 0) return Status::OK();
  if (join != nullptr) {
    join->rows += n;
    ++join->chunks;
  }
  if (pairs_.probe_chunks() != prefix_chunk_) {
    // A new probe chunk: normalise its prefix keys, which are compared once
    // per run, never hashed.
    INDBML_RETURN_NOT_OK(NormalizeAndHashKeys(prefix_keys_, pairs_.probe_chunk(), 0,
                                              &prefix_norm_, nullptr));
    prefix_chunk_ = pairs_.probe_chunks();
    Track();
  }
  OperatorStats* agg = AggregateStats(ctx);
  {
    ScopedNanos gather(agg != nullptr ? &agg->phase_nanos["gather"] : nullptr);
    narrow_.Reset(narrow_types_);
    const PairRuns runs = pairs_.runs();
    const int64_t probe_width = static_cast<int64_t>(probe_columns_.size());
    for (int64_t j = 0; j < probe_width; ++j) {
      GatherProbeRuns(pairs_.probe_chunk().column(probe_columns_[static_cast<size_t>(j)]),
                      runs, &narrow_.column(j));
    }
    for (size_t j = 0; j < build_columns_.size(); ++j) {
      GatherBuildRuns(pairs_.build_columns()[static_cast<size_t>(build_columns_[j])],
                      runs, &narrow_.column(probe_width + static_cast<int64_t>(j)));
    }
    narrow_.size = n;
  }
  ScopedNanos evaluate(agg != nullptr ? &agg->phase_nanos["evaluate"] : nullptr);
  return EvaluateAggregateArgs(aggregates_, narrow_, &args_);
}

bool GroupJoinOperator::AggregatePrefixRuns() {
  const PairRuns runs = pairs_.runs();
  const int32_t* dense = dense_.data();
  int32_t* group_of_dense = group_of_dense_.data();
  GroupTable& table = prefix_groups_.table();
  const int64_t begin = batch_row_;
  int64_t end = begin;
  int64_t r = batch_run_;
  for (; r < runs.count && prefix_groups_.Continues(prefix_norm_, runs.probe[r]); ++r) {
    // The run's build rows, in build order: a first-seen dense id becomes
    // the prefix's next group.
    const int32_t* run_dense = dense + runs.build[r];
    int32_t* gids = gids_.data() + end;
    for (int32_t j = 0; j < runs.length[r]; ++j) {
      const int32_t d = run_dense[j];
      int32_t g = group_of_dense[d];
      if (g < 0) {
        g = static_cast<int32_t>(dense_of_group_.size());
        group_of_dense[d] = g;
        dense_of_group_.push_back(d);
      }
      gids[j] = g;
    }
    end += runs.length[r];
  }
  table.AppendGroups(rest_ptrs_.data(), rest_ids_.hashes(),
                     dense_of_group_.data() + table.size(),
                     static_cast<int64_t>(dense_of_group_.size()) - table.size());
  prefix_groups_.Update(args_, begin, end - begin, gids_.data() + begin);
  batch_run_ = r;
  batch_row_ = end;
  return r == runs.count;
}

Status GroupJoinOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  *eof = false;
  while (out->size < kDefaultVectorSize) {
    if (prefix_groups_.flushing()) {
      if (!prefix_groups_.EmitFlush(out)) break;  // out is full
      ClearGroupMap();
      continue;
    }
    if (batch_row_ >= batch_size_) {
      INDBML_RETURN_NOT_OK(NextBatch(ctx));
      if (batch_size_ == 0) {
        if (!prefix_groups_.active()) break;
        prefix_groups_.Finish();
      }
      continue;
    }
    OperatorStats* agg = AggregateStats(ctx);
    ScopedNanos update(agg != nullptr ? &agg->phase_nanos["update"] : nullptr);
    // The prefix changed inside the batch: emit its groups before
    // aggregating further.
    if (!AggregatePrefixRuns()) prefix_groups_.Finish();
  }
  *eof = pairs_.eof() && batch_row_ >= batch_size_ && !prefix_groups_.active();
  return Status::OK();
}

}  // namespace indbml::exec
