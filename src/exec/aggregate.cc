#include "exec/aggregate.h"

#include <algorithm>
#include <limits>

#include "common/config.h"
#include "common/memory_tracker.h"
#include "exec/gather.h"
#include "exec/join.h"

namespace indbml::exec {

const char* AggFunctionName(AggFunction fn) {
  switch (fn) {
    case AggFunction::kSum:
      return "SUM";
    case AggFunction::kCount:
      return "COUNT";
    case AggFunction::kMin:
      return "MIN";
    case AggFunction::kMax:
      return "MAX";
    case AggFunction::kAvg:
      return "AVG";
  }
  return "?";
}

namespace {

/// Shared helpers for both aggregation flavours.
std::vector<DataType> BuildTypes(const std::vector<ExprPtr>& groups,
                                 const std::vector<AggregateSpec>& aggs) {
  std::vector<DataType> types;
  for (const auto& g : groups) types.push_back(g->type);
  for (const auto& a : aggs) types.push_back(a.result_type);
  return types;
}

std::vector<std::string> BuildNames(const std::vector<std::string>& group_names,
                                    const std::vector<AggregateSpec>& aggs) {
  std::vector<std::string> names = group_names;
  for (const auto& a : aggs) names.push_back(a.name);
  return names;
}

/// Evaluates a chunk's group keys (NormalizeAndHashKeys, hashing keys
/// [hash_from, end)) and its aggregate arguments into flat vectors.
Status EvalChunk(const std::vector<ExprPtr>& groups,
                 const std::vector<AggregateSpec>& aggs, const DataChunk& in,
                 size_t hash_from, std::vector<std::vector<uint64_t>>* norm_keys,
                 std::vector<uint64_t>* hashes, std::vector<Vector>* args) {
  INDBML_RETURN_NOT_OK(NormalizeAndHashKeys(groups, in, hash_from, norm_keys, hashes));
  return EvaluateAggregateArgs(aggs, in, args);
}

/// Adds `n` argument values to their groups' states (`st` strided by the
/// number of aggregates) in row order.
template <typename T, typename Op>
void UpdateRows(AggState* st, int64_t stride, const int32_t* gids, const T* v,
                int64_t n, Op op) {
  for (int64_t i = 0; i < n; ++i) {
    AggState& s = st[static_cast<int64_t>(gids[i]) * stride];
    op(s, v[i]);
    ++s.count;
  }
}

}  // namespace

Status EvaluateAggregateArgs(const std::vector<AggregateSpec>& aggs,
                             const DataChunk& in, std::vector<Vector>* args) {
  args->clear();
  for (const auto& a : aggs) {
    args->emplace_back(a.argument ? a.argument->type : DataType::kInt64);
    if (a.argument) {
      INDBML_RETURN_NOT_OK(EvaluateExpr(*a.argument, in, &args->back()));
      // The update loops index raw typed pointers, so aggregation is a
      // flatten boundary for selected views coming off a filtered scan.
      args->back().Flatten();
    }
  }
  return Status::OK();
}

GroupTable::GroupTable(size_t num_keys, const std::vector<AggregateSpec>& aggs)
    : keys_(num_keys),
      slots_(size_t{1} << (64 - kInitialSlotShift), -1),
      slot_shift_(kInitialSlotShift) {
  for (const AggregateSpec& a : aggs) {
    const bool exact = a.argument != nullptr && a.argument->type == DataType::kInt64;
    Mode mode = Mode::kCount;
    if (a.argument != nullptr) {
      switch (a.function) {
        case AggFunction::kCount:
          break;
        case AggFunction::kSum:
          mode = exact ? Mode::kSumInt : Mode::kSum;
          break;
        case AggFunction::kAvg:
          mode = Mode::kAvg;
          break;
        case AggFunction::kMin:
          mode = exact ? Mode::kMinInt : Mode::kMin;
          break;
        case AggFunction::kMax:
          mode = exact ? Mode::kMaxInt : Mode::kMax;
          break;
      }
    }
    modes_.push_back(mode);
  }
  Track();
}

void GroupTable::Track() {
  int64_t bytes = CapacityBytes(hashes_) + CapacityBytes(states_) +
                  CapacityBytes(slots_);
  for (const auto& col : keys_) bytes += CapacityBytes(col);
  tracked_.Set(bytes);
}

void GroupTable::Grow() {
  --slot_shift_;
  slots_.assign(size_t{1} << (64 - slot_shift_), -1);
  const size_t mask = slots_.size() - 1;
  for (int64_t g = 0; g < num_groups_; ++g) {
    size_t s = hashes_[static_cast<size_t>(g)] >> slot_shift_;
    while (slots_[s] >= 0) s = (s + 1) & mask;
    slots_[s] = static_cast<int32_t>(g);
  }
}

int32_t GroupTable::Insert(const uint64_t* const* keys, int64_t row, uint64_t h,
                           size_t slot) {
  // Keep the load factor at or below one half.
  if (2 * (num_groups_ + 1) > static_cast<int64_t>(slots_.size())) {
    Grow();
    const size_t mask = slots_.size() - 1;
    slot = h >> slot_shift_;
    while (slots_[slot] >= 0) slot = (slot + 1) & mask;
  }
  INDBML_CHECK(num_groups_ < std::numeric_limits<int32_t>::max()) << "too many groups";
  const int32_t g = static_cast<int32_t>(num_groups_++);
  slots_[slot] = g;
  for (size_t k = 0; k < keys_.size(); ++k) keys_[k].push_back(keys[k][row]);
  hashes_.push_back(h);
  states_.resize(states_.size() + modes_.size());
  return g;
}

void GroupTable::AppendGroups(const uint64_t* const* keys, const uint64_t* hashes,
                              const int32_t* rows, int64_t n) {
  if (n == 0) return;
  INDBML_CHECK(num_groups_ + n <= std::numeric_limits<int32_t>::max())
      << "too many groups";
  for (size_t k = 0; k < keys_.size(); ++k) {
    for (int64_t i = 0; i < n; ++i) keys_[k].push_back(keys[k][rows[i]]);
  }
  for (int64_t i = 0; i < n; ++i) hashes_.push_back(hashes[rows[i]]);
  states_.resize(states_.size() + static_cast<size_t>(n) * modes_.size());
  num_groups_ += n;
  unindexed_ = true;
  Track();
}

void GroupTable::FindOrInsert(const uint64_t* const* keys, const uint64_t* hashes,
                              int64_t n, int32_t* gids) {
  INDBML_DCHECK(!unindexed_) << "FindOrInsert on a table filled by AppendGroups";
  const size_t num_keys = keys_.size();
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = hashes[i];
    const size_t mask = slots_.size() - 1;
    size_t s = h >> slot_shift_;
    int32_t g;
    for (; (g = slots_[s]) >= 0; s = (s + 1) & mask) {
      const size_t gs = static_cast<size_t>(g);
      if (hashes_[gs] != h) continue;
      size_t k = 0;
      while (k < num_keys && keys_[k][gs] == keys[k][i]) ++k;
      if (k == num_keys) break;
    }
    gids[i] = g >= 0 ? g : Insert(keys, i, h, s);
  }
  Track();
}

void GroupTable::Update(const std::vector<Vector>& args, int64_t begin, int64_t n,
                        const int32_t* gids) {
  if (n == 0) return;
  const int64_t stride = static_cast<int64_t>(modes_.size());
  for (size_t a = 0; a < modes_.size(); ++a) {
    AggState* st = states_.data() + a;
    const Mode mode = modes_[a];
    if (mode == Mode::kCount) {
      for (int64_t i = 0; i < n; ++i) ++st[static_cast<int64_t>(gids[i]) * stride].count;
      continue;
    }
    if (mode == Mode::kSumInt || mode == Mode::kMinInt || mode == Mode::kMaxInt) {
      const int64_t* v = args[a].ints() + begin;
      switch (mode) {
        case Mode::kSumInt:
          // Unsigned addition: wraps like BIGINT `+` without signed overflow.
          UpdateRows(st, stride, gids, v, n, [](AggState& s, int64_t x) {
            s.i = static_cast<int64_t>(static_cast<uint64_t>(s.i) +
                                       static_cast<uint64_t>(x));
          });
          break;
        case Mode::kMinInt:
          UpdateRows(st, stride, gids, v, n, [](AggState& s, int64_t x) {
            if (s.count == 0 || x < s.i) s.i = x;
          });
          break;
        default:
          UpdateRows(st, stride, gids, v, n, [](AggState& s, int64_t x) {
            if (s.count == 0 || x > s.i) s.i = x;
          });
          break;
      }
      continue;
    }
    auto update = [&](const auto* v) {
      switch (mode) {
        case Mode::kMin:
          UpdateRows(st, stride, gids, v, n, [](AggState& s, auto x) {
            const double d = static_cast<double>(x);
            if (s.count == 0 || d < s.d) s.d = d;
          });
          break;
        case Mode::kMax:
          UpdateRows(st, stride, gids, v, n, [](AggState& s, auto x) {
            const double d = static_cast<double>(x);
            if (s.count == 0 || d > s.d) s.d = d;
          });
          break;
        default:  // kSum, kAvg
          UpdateRows(st, stride, gids, v, n,
                     [](AggState& s, auto x) { s.d += static_cast<double>(x); });
          break;
      }
    };
    const Vector& arg = args[a];
    switch (arg.type()) {
      case DataType::kBool:
        update(arg.bools() + begin);
        break;
      case DataType::kInt64:
        update(arg.ints() + begin);
        break;
      case DataType::kFloat:
        update(arg.floats() + begin);
        break;
    }
  }
}

void GroupTable::Emit(int64_t first, int64_t n, int64_t col, int64_t row,
                      DataChunk* out) const {
  if (n == 0) return;
  for (size_t k = 0; k < keys_.size(); ++k) {
    DenormalizeKeys(keys_[k].data() + first, 1, n, &out->column(col++), row);
  }
  const int64_t stride = static_cast<int64_t>(modes_.size());
  for (size_t a = 0; a < modes_.size(); ++a) {
    const Mode mode = modes_[a];
    const bool exact = mode == Mode::kCount || mode == Mode::kSumInt ||
                       mode == Mode::kMinInt || mode == Mode::kMaxInt;
    // The finalised value of group g: an exact int64 or a double.
    auto int_value = [&](const AggState& s) {
      return mode == Mode::kCount ? s.count : s.i;
    };
    auto double_value = [&](const AggState& s) {
      if (exact) return static_cast<double>(int_value(s));
      if (mode == Mode::kAvg) {
        return s.count > 0 ? s.d / static_cast<double>(s.count) : 0.0;
      }
      return s.d;
    };
    const AggState* st = states_.data() + first * stride + static_cast<int64_t>(a);
    Vector& dst = out->column(col++);
    dst.ResizeForOverwrite(row + n, row);
    switch (dst.type()) {
      case DataType::kInt64: {
        int64_t* o = dst.ints() + row;
        for (int64_t i = 0; i < n; ++i) {
          const AggState& s = st[i * stride];
          o[i] = exact ? int_value(s) : static_cast<int64_t>(double_value(s));
        }
        break;
      }
      case DataType::kFloat: {
        float* o = dst.floats() + row;
        for (int64_t i = 0; i < n; ++i) {
          o[i] = static_cast<float>(double_value(st[i * stride]));
        }
        break;
      }
      case DataType::kBool: {
        uint8_t* o = dst.bools() + row;
        for (int64_t i = 0; i < n; ++i) {
          o[i] = double_value(st[i * stride]) != 0 ? 1 : 0;
        }
        break;
      }
    }
  }
}

void GroupTable::Clear() {
  std::fill(slots_.begin(), slots_.end(), -1);
  for (auto& col : keys_) col.clear();
  hashes_.clear();
  states_.clear();
  num_groups_ = 0;
  unindexed_ = false;
}

PrefixGroups::PrefixGroups(size_t prefix_keys, size_t rest_keys,
                           const std::vector<AggregateSpec>& aggs)
    : table_(rest_keys, aggs), prefix_(prefix_keys) {}

int64_t PrefixGroups::Run(const std::vector<std::vector<uint64_t>>& keys,
                          int64_t begin, int64_t end) {
  const size_t prefix = prefix_.size();
  if (!active_) {
    for (size_t k = 0; k < prefix; ++k) prefix_[k] = keys[k][static_cast<size_t>(begin)];
    active_ = true;
  }
  // The run ends at the first row where any prefix key differs.
  for (size_t k = 0; k < prefix && end > begin; ++k) {
    const uint64_t* col = keys[k].data();
    const uint64_t want = prefix_[k];
    int64_t row = begin;
    while (row < end && col[row] == want) ++row;
    end = row;
  }
  return end;
}

void PrefixGroups::Update(const std::vector<Vector>& args, int64_t begin, int64_t n,
                          const int32_t* gids) {
  table_.Update(args, begin, n, gids);
  peak_group_count_ = std::max(peak_group_count_, table_.size());
}

bool PrefixGroups::EmitFlush(DataChunk* out) {
  const int64_t n = std::min<int64_t>(kDefaultVectorSize - out->size,
                                      table_.size() - flush_cursor_);
  for (size_t k = 0; k < prefix_.size(); ++k) {
    DenormalizeKeys(&prefix_[k], 0, n, &out->column(static_cast<int64_t>(k)),
                    out->size);
  }
  table_.Emit(flush_cursor_, n, static_cast<int64_t>(prefix_.size()), out->size, out);
  out->size += n;
  flush_cursor_ += n;
  if (flush_cursor_ < table_.size()) return false;  // out is full
  table_.Clear();
  flushing_ = false;
  active_ = false;
  return true;
}

void PrefixGroups::Reset() {
  table_.Clear();
  active_ = false;
  flushing_ = false;
}

HashAggregateOperator::HashAggregateOperator(OperatorPtr child,
                                             std::vector<ExprPtr> groups,
                                             std::vector<std::string> group_names,
                                             std::vector<AggregateSpec> aggregates)
    : child_(std::move(child)),
      groups_(std::move(groups)),
      aggregates_(std::move(aggregates)),
      types_(BuildTypes(groups_, aggregates_)),
      names_(BuildNames(group_names, aggregates_)),
      table_(groups_.size(), aggregates_) {}

Status HashAggregateOperator::Open(ExecContext* ctx) {
  table_.Clear();
  emit_cursor_ = 0;
  consumed_ = false;
  return child_->Open(ctx);
}

Status HashAggregateOperator::Rewind(ExecContext* ctx) {
  table_.Clear();
  emit_cursor_ = 0;
  consumed_ = false;
  return child_->Rewind(ctx);
}

Status HashAggregateOperator::Consume(ExecContext* ctx) {
  bool eof = false;
  std::vector<std::vector<uint64_t>> norm_keys;
  std::vector<uint64_t> hashes;
  std::vector<Vector> args;
  std::vector<const uint64_t*> key_ptrs(groups_.size());
  std::vector<int32_t> gids;
  while (!eof) {
    // Drop the previous chunk's argument views first, so Reset can reuse
    // the input buffers.
    args.clear();
    in_.Reset(child_->output_types());
    INDBML_RETURN_NOT_OK(child_->Next(ctx, &in_, &eof));
    if (in_.size == 0) continue;
    INDBML_RETURN_NOT_OK(
        EvalChunk(groups_, aggregates_, in_, 0, &norm_keys, &hashes, &args));
    for (size_t k = 0; k < groups_.size(); ++k) key_ptrs[k] = norm_keys[k].data();
    gids.resize(static_cast<size_t>(in_.size));
    table_.FindOrInsert(key_ptrs.data(), hashes.data(), in_.size, gids.data());
    table_.Update(args, 0, in_.size, gids.data());
  }
  // SQL semantics: a global aggregate (no GROUP BY) over empty input still
  // produces one row (COUNT = 0, sums empty).
  if (groups_.empty() && table_.size() == 0) {
    int32_t gid;
    table_.FindOrInsert(nullptr, &kKeyHashSeed, 1, &gid);
  }
  consumed_ = true;
  return Status::OK();
}

Status HashAggregateOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  if (!consumed_) INDBML_RETURN_NOT_OK(Consume(ctx));
  const int64_t n = std::min<int64_t>(kDefaultVectorSize - out->size,
                                      table_.size() - emit_cursor_);
  table_.Emit(emit_cursor_, n, 0, out->size, out);
  out->size += n;
  emit_cursor_ += n;
  *eof = emit_cursor_ >= table_.size();
  return Status::OK();
}

StreamingAggregateOperator::StreamingAggregateOperator(
    OperatorPtr child, std::vector<ExprPtr> groups,
    std::vector<std::string> group_names, std::vector<AggregateSpec> aggregates,
    int prefix_count)
    : child_(std::move(child)),
      groups_(std::move(groups)),
      aggregates_(std::move(aggregates)),
      types_(BuildTypes(groups_, aggregates_)),
      names_(BuildNames(group_names, aggregates_)),
      prefix_count_(prefix_count),
      // An invalid prefix_count fails the check below.
      prefix_groups_(
          std::min<size_t>(groups_.size(), std::max(prefix_count, 0)),
          groups_.size() - std::min<size_t>(groups_.size(), std::max(prefix_count, 0)),
          aggregates_) {
  INDBML_CHECK(prefix_count_ >= 1 &&
               prefix_count_ <= static_cast<int>(groups_.size()))
      << "invalid sorted-prefix length";
}

void StreamingAggregateOperator::ResetStream() {
  prefix_groups_.Reset();
  input_eof_ = false;
  args_.clear();
  in_.Reset(child_->output_types());
  in_row_ = 0;
}

Status StreamingAggregateOperator::Open(ExecContext* ctx) {
  ResetStream();
  prefix_groups_.ResetPeak();
  return child_->Open(ctx);
}

Status StreamingAggregateOperator::Rewind(ExecContext* ctx) {
  ResetStream();
  // The peak group count deliberately survives: it reports the peak across
  // the whole execution, morsels included.
  return child_->Rewind(ctx);
}

Status StreamingAggregateOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  *eof = false;
  const size_t prefix = static_cast<size_t>(prefix_count_);
  const size_t rest = groups_.size() - prefix;
  std::vector<const uint64_t*> rest_ptrs(rest);
  while (out->size < kDefaultVectorSize) {
    if (prefix_groups_.flushing()) {
      if (!prefix_groups_.EmitFlush(out)) break;  // out is full
      continue;
    }
    if (in_row_ >= in_.size) {
      if (input_eof_) {
        if (!prefix_groups_.active()) break;
        prefix_groups_.Finish();
        continue;
      }
      args_.clear();
      in_.Reset(child_->output_types());
      INDBML_RETURN_NOT_OK(child_->Next(ctx, &in_, &input_eof_));
      in_row_ = 0;
      if (in_.size == 0) continue;
      INDBML_RETURN_NOT_OK(EvalChunk(groups_, aggregates_, in_, prefix, &norm_keys_,
                                     &hashes_, &args_));
      gids_.resize(static_cast<size_t>(in_.size));
      int64_t bytes = CapacityBytes(hashes_) + CapacityBytes(gids_);
      for (const auto& col : norm_keys_) bytes += CapacityBytes(col);
      tracked_.Set(bytes);
      continue;
    }
    // Aggregate the run of rows that share the current prefix.
    const int64_t begin = in_row_;
    const int64_t end = prefix_groups_.Run(norm_keys_, begin, in_.size);
    for (size_t k = 0; k < rest; ++k) rest_ptrs[k] = norm_keys_[prefix + k].data() + begin;
    prefix_groups_.table().FindOrInsert(rest_ptrs.data(), hashes_.data() + begin,
                                        end - begin, gids_.data());
    prefix_groups_.Update(args_, begin, end - begin, gids_.data());
    in_row_ = end;
    // The prefix changed: emit its groups before aggregating further.
    if (end < in_.size) prefix_groups_.Finish();
  }
  *eof = input_eof_ && in_row_ >= in_.size && !prefix_groups_.active();
  return Status::OK();
}

}  // namespace indbml::exec
