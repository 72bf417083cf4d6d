#include "exec/join.h"

#include <algorithm>

#include "common/config.h"
#include "common/memory_tracker.h"
#include "exec/gather.h"

namespace indbml::exec {

Status NormalizeAndHashKeys(const std::vector<ExprPtr>& keys, const DataChunk& chunk,
                           size_t hash_from,
                           std::vector<std::vector<uint64_t>>* norm_keys,
                           std::vector<uint64_t>* hashes) {
  const size_t n = static_cast<size_t>(chunk.size);
  norm_keys->resize(keys.size());
  if (hashes != nullptr) hashes->assign(n, kKeyHashSeed);
  for (size_t k = 0; k < keys.size(); ++k) {
    Vector v(keys[k]->type);
    INDBML_RETURN_NOT_OK(EvaluateExpr(*keys[k], chunk, &v));
    std::vector<uint64_t>& col = (*norm_keys)[k];
    col.resize(n);
    NormalizeKeys(v, col.data());
    if (hashes != nullptr && k >= hash_from) {
      HashKeyColumn(col.data(), chunk.size, hashes->data());
    }
  }
  return Status::OK();
}

HashJoinPairs::HashJoinPairs(OperatorPtr probe, OperatorPtr build,
                             std::vector<ExprPtr> probe_keys,
                             std::vector<ExprPtr> build_keys)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)) {}

namespace {

/// Bits of a bucket array with at least two buckets per entry, which keeps
/// a bucket's chain about one entry long.
int BucketBits(int64_t entries) {
  int bits = 1;
  while ((int64_t{1} << bits) < 2 * entries) ++bits;
  return bits;
}

/// The build lays its rows out in key runs when more than half of
/// kRepeatSamples build rows, spread evenly over it, share their key with at
/// least kRunRowsPerKey - 1 other rows. A run saves a hash-and-key
/// comparison per further match of a probe row; it costs numbering the
/// keys and, when equal keys are scattered, moving every build row. Below
/// that repetition the build keeps its rows in place, chained per bucket.
constexpr int64_t kRepeatSamples = 64;
constexpr int64_t kRunRowsPerKey = 4;

}  // namespace

Status HashJoinPairs::EnsureBuilt(ExecContext* ctx) {
  if (built_) return Status::OK();
  INDBML_RETURN_NOT_OK(
      DrainColumns(build_.get(), ctx, &build_columns_, &build_rows_));
  INDBML_RETURN_NOT_OK(NormalizeAndHashKeys(build_keys_,
                                            ColumnsChunk(build_columns_, build_rows_),
                                            0, &words_, &hashes_));
  ChainRows();
  run_start_.clear();
  if (KeysRepeat()) {
    std::vector<int32_t> row_key;
    TrackedBytes scratch;
    const bool grouped = NumberKeys(&row_key);
    scratch.Set(CapacityBytes(row_key));
    CompactKeys();
    if (!grouped) GroupRows(row_key);
    run_start_.push_back(static_cast<int32_t>(build_rows_));
  }
  // Sized here, not at construction: a worker whose plan never runs a
  // morsel then holds (and reports) nothing.
  run_probe_.resize(kDefaultVectorSize);
  run_build_.resize(kDefaultVectorSize);
  run_length_.resize(kDefaultVectorSize);
  Track();
  built_ = true;
  return Status::OK();
}

void HashJoinPairs::ChainRows() {
  const int bits = BucketBits(build_rows_);
  bucket_shift_ = 64 - bits;
  heads_.assign(size_t{1} << bits, -1);
  next_.resize(static_cast<size_t>(build_rows_));
  // Inserting back to front at the heads leaves every chain in build order.
  for (int64_t r = build_rows_ - 1; r >= 0; --r) {
    int32_t& head = heads_[hashes_[static_cast<size_t>(r)] >> bucket_shift_];
    next_[static_cast<size_t>(r)] = head;
    head = static_cast<int32_t>(r);
  }
}

bool HashJoinPairs::KeysRepeat() const {
  const int64_t step = std::max<int64_t>(1, build_rows_ / kRepeatSamples);
  int64_t sampled = 0;
  int64_t repeated = 0;
  for (int64_t r = 0; r < build_rows_; r += step) {
    const size_t row = static_cast<size_t>(r);
    const uint64_t h = hashes_[row];
    int64_t same = 0;
    for (int32_t e = heads_[h >> bucket_shift_]; e >= 0 && same < kRunRowsPerKey;
         e = next_[static_cast<size_t>(e)]) {
      const size_t entry = static_cast<size_t>(e);
      if (hashes_[entry] != h) continue;
      size_t w = 0;
      while (w < words_.size() && words_[w][entry] == words_[w][row]) ++w;
      if (w == words_.size()) ++same;
    }
    ++sampled;
    if (same >= kRunRowsPerKey) ++repeated;
  }
  return 2 * repeated > sampled;
}

bool HashJoinPairs::NumberKeys(std::vector<int32_t>* row_key) {
  // Re-chains the keys instead of the rows: the heads are cleared, next_
  // and run_start_ are sized for every row being a new key and cut to the
  // key count at the end.
  std::fill(heads_.begin(), heads_.end(), -1);
  run_start_.resize(static_cast<size_t>(build_rows_) + 1);
  row_key->resize(static_cast<size_t>(build_rows_));
  // Key k's words and hash move to entry k as it is numbered; k never
  // exceeds the row being numbered, so no row still to come is overwritten.
  uint64_t* hashes = hashes_.data();
  int32_t* next = next_.data();
  int32_t* first_row = run_start_.data();
  const size_t num_words = words_.size();
  int32_t keys = 0;
  bool grouped = true;
  int32_t prev = -1;
  for (int64_t r = 0; r < build_rows_; ++r) {
    const size_t row = static_cast<size_t>(r);
    const uint64_t h = hashes[row];
    int32_t& head = heads_[h >> bucket_shift_];
    int32_t k = head;
    for (; k >= 0; k = next[k]) {
      if (hashes[k] != h) continue;
      size_t w = 0;
      while (w < num_words && words_[w][static_cast<size_t>(k)] == words_[w][row]) ++w;
      if (w == num_words) break;
    }
    if (k < 0) {
      k = keys++;
      hashes[k] = h;
      for (auto& words : words_) words[static_cast<size_t>(k)] = words[row];
      first_row[k] = static_cast<int32_t>(r);
      next[k] = head;
      head = k;
    } else if (k != prev) {
      grouped = false;  // an earlier key comes back after another one
    }
    (*row_key)[row] = k;
    prev = k;
  }
  next_.resize(static_cast<size_t>(keys));
  run_start_.resize(static_cast<size_t>(keys));
  hashes_.resize(static_cast<size_t>(keys));
  for (auto& words : words_) words.resize(static_cast<size_t>(keys));
  return grouped;
}

void HashJoinPairs::CompactKeys() {
  const size_t keys = run_start_.size();
  // Release the per-row capacity and re-bucket for the distinct keys alone.
  hashes_.shrink_to_fit();
  for (auto& words : words_) words.shrink_to_fit();
  next_.shrink_to_fit();
  run_start_.shrink_to_fit();
  const int bits = BucketBits(static_cast<int64_t>(keys));
  bucket_shift_ = 64 - bits;
  heads_.assign(size_t{1} << bits, -1);
  heads_.shrink_to_fit();
  for (size_t k = 0; k < keys; ++k) {
    int32_t& head = heads_[hashes_[k] >> bucket_shift_];
    next_[k] = head;
    head = static_cast<int32_t>(k);
  }
}

void HashJoinPairs::GroupRows(const std::vector<int32_t>& row_key) {
  // A stable counting sort on the key numbers: run starts from the key
  // counts, then each row's position in its key's run, in build order.
  const size_t keys = run_start_.size();
  std::vector<int32_t> fill(keys + 1, 0);
  for (int32_t k : row_key) ++fill[static_cast<size_t>(k) + 1];
  for (size_t k = 0; k < keys; ++k) {
    fill[k + 1] += fill[k];
    run_start_[k] = fill[k];
  }
  std::vector<int32_t> order(row_key.size());
  TrackedBytes scratch;
  scratch.Set(CapacityBytes(fill) + CapacityBytes(order));
  for (size_t r = 0; r < row_key.size(); ++r) {
    order[static_cast<size_t>(fill[static_cast<size_t>(row_key[r])]++)] =
        static_cast<int32_t>(r);
  }
  for (Vector& col : build_columns_) {
    Vector grouped(col.type());
    GatherIndexed(col, order.data(), build_rows_, &grouped);
    col = std::move(grouped);
  }
}

void HashJoinPairs::Track() {
  int64_t bytes = TableBytes() + CapacityBytes(probe_hashes_) +
                  CapacityBytes(run_probe_) + CapacityBytes(run_build_) +
                  CapacityBytes(run_length_);
  for (const auto& col : probe_norm_keys_) bytes += CapacityBytes(col);
  tracked_.Set(bytes);
}

int64_t HashJoinPairs::TableBytes() const {
  int64_t bytes = CapacityBytes(heads_) + CapacityBytes(next_) + CapacityBytes(hashes_) +
                  CapacityBytes(run_start_);
  for (const auto& col : words_) bytes += CapacityBytes(col);
  return bytes;
}

void HashJoinPairs::ClearBuild() {
  // The table's arrays keep their capacity (and its tracked bytes) for the
  // next morsel's rebuild, unless a build into key runs shrinks them.
  build_columns_.clear();
  build_rows_ = 0;
  built_ = false;
}

Status HashJoinPairs::Open(ExecContext* ctx) {
  INDBML_RETURN_NOT_OK(build_->Open(ctx));
  INDBML_RETURN_NOT_OK(probe_->Open(ctx));
  built_ = false;
  probe_eof_ = false;
  probe_chunk_valid_ = false;
  return Status::OK();
}

Status HashJoinPairs::Rewind(ExecContext* ctx) {
  INDBML_RETURN_NOT_OK(probe_->Rewind(ctx));
  probe_eof_ = false;
  probe_chunk_valid_ = false;
  if (build_->MorselDriven()) {
    ClearBuild();
    INDBML_RETURN_NOT_OK(build_->Rewind(ctx));
  }
  return Status::OK();
}

void HashJoinPairs::Close(ExecContext* ctx) {
  probe_->Close(ctx);
  build_->Close(ctx);
}

Status HashJoinPairs::PrepareProbeChunk() {
  INDBML_RETURN_NOT_OK(NormalizeAndHashKeys(probe_keys_, probe_chunk_, 0,
                                            &probe_norm_keys_, &probe_hashes_));
  Track();
  ++probe_chunks_;
  probe_row_ = 0;
  run_row_ = -1;
  probe_chunk_valid_ = true;
  return Status::OK();
}

int64_t HashJoinPairs::CollectMatches(int64_t room) {
  // The walks run on locals (raw arrays, the cursor in registers) and write
  // the cursor back when they stop.
  const size_t num_words = probe_norm_keys_.size();
  const int32_t* heads = heads_.data();
  const int32_t* next = next_.data();
  const uint64_t* hashes = hashes_.data();
  const uint64_t* probe_hashes = probe_hashes_.data();
  auto equal = [&](int32_t e, int64_t p) {
    for (size_t w = 0; w < num_words; ++w) {
      if (words_[w][static_cast<size_t>(e)] !=
          probe_norm_keys_[w][static_cast<size_t>(p)]) {
        return false;
      }
    }
    return true;
  };
  const int64_t rows = probe_chunk_.size;
  int32_t* run_probe = run_probe_.data();
  int32_t* run_build = run_build_.data();
  int32_t* run_length = run_length_.data();
  int64_t num_runs = 0;
  int64_t n = 0;
  int64_t p = probe_row_;
  int32_t b = run_row_;
  if (run_start_.empty()) {
    // Build rows chained per bucket: every match is a run of one, and the
    // cursor is the chain entry to resume at.
    for (; p < rows; ++p, b = -1) {
      const uint64_t h = probe_hashes[p];
      for (b = b >= 0 ? b : heads[h >> bucket_shift_]; b >= 0; b = next[b]) {
        if (hashes[b] != h || !equal(b, p)) continue;
        if (n == room) {
          probe_row_ = p;
          run_row_ = b;
          num_runs_ = num_pairs_ = n;
          return n;
        }
        run_probe[n] = static_cast<int32_t>(p);
        run_build[n] = b;
        run_length[n] = 1;
        ++n;
      }
    }
    probe_row_ = p;
    run_row_ = -1;
    num_runs_ = num_pairs_ = n;
    return n;
  }
  // Key runs: one lookup per probe row, and the cursor is the build row at
  // which a cut run resumes.
  const int32_t* run_start = run_start_.data();
  int32_t end = run_end_;
  for (; p < rows && n < room; ++p) {
    if (b < 0) {
      const uint64_t h = probe_hashes[p];
      int32_t k = heads[h >> bucket_shift_];
      while (k >= 0 && (hashes[k] != h || !equal(k, p))) k = next[k];
      if (k < 0) continue;
      b = run_start[k];
      end = run_start[k + 1];
    }
    const int32_t take = static_cast<int32_t>(std::min<int64_t>(end - b, room - n));
    run_probe[num_runs] = static_cast<int32_t>(p);
    run_build[num_runs] = b;
    run_length[num_runs] = take;
    ++num_runs;
    n += take;
    b += take;
    if (b < end) break;  // the batch is full inside the run: resume at b
    b = -1;
  }
  probe_row_ = p;
  run_row_ = b;
  run_end_ = end;
  num_runs_ = num_runs;
  num_pairs_ = n;
  return n;
}

Status HashJoinPairs::Next(ExecContext* ctx, int64_t room, int64_t* n) {
  INDBML_DCHECK(room > 0 && room <= kDefaultVectorSize);
  *n = 0;
  num_runs_ = num_pairs_ = 0;
  INDBML_RETURN_NOT_OK(EnsureBuilt(ctx));
  while (*n == 0) {
    if (!probe_chunk_valid_) {
      if (probe_eof_) break;
      probe_chunk_.Reset(probe_->output_types());
      INDBML_RETURN_NOT_OK(probe_->Next(ctx, &probe_chunk_, &probe_eof_));
      if (probe_chunk_.size == 0) continue;
      INDBML_RETURN_NOT_OK(PrepareProbeChunk());
    }
    *n = CollectMatches(room);
    if (probe_row_ >= probe_chunk_.size) probe_chunk_valid_ = false;
  }
  return Status::OK();
}

int64_t HashJoinPairs::BuildBytes() const {
  int64_t bytes = TableBytes();
  for (const Vector& col : build_columns_) {
    bytes += col.size() * storage::DataTypeSize(col.type());
  }
  return bytes;
}

HashJoinOperator::HashJoinOperator(OperatorPtr probe, OperatorPtr build,
                                   std::vector<ExprPtr> probe_keys,
                                   std::vector<ExprPtr> build_keys)
    : pairs_(std::move(probe), std::move(build), std::move(probe_keys),
             std::move(build_keys)) {
  types_ = pairs_.probe().output_types();
  names_ = pairs_.probe().output_names();
  for (DataType t : pairs_.build().output_types()) types_.push_back(t);
  for (const std::string& n : pairs_.build().output_names()) names_.push_back(n);
}

Status HashJoinOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  const int64_t probe_width = static_cast<int64_t>(pairs_.probe().output_types().size());
  while (out->size < kDefaultVectorSize) {
    int64_t n = 0;
    INDBML_RETURN_NOT_OK(pairs_.Next(ctx, kDefaultVectorSize - out->size, &n));
    if (n == 0) break;
    const PairRuns runs = pairs_.runs();
    for (int64_t c = 0; c < probe_width; ++c) {
      GatherProbeRuns(pairs_.probe_chunk().column(c), runs, &out->column(c), out->size);
    }
    const std::vector<Vector>& build = pairs_.build_columns();
    for (size_t c = 0; c < build.size(); ++c) {
      GatherBuildRuns(build[c], runs, &out->column(probe_width + static_cast<int64_t>(c)),
                      out->size);
    }
    out->size += n;
  }
  *eof = pairs_.eof();
  return Status::OK();
}

CrossJoinOperator::CrossJoinOperator(OperatorPtr left, OperatorPtr right)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_sel_(kDefaultVectorSize),
      right_sel_(kDefaultVectorSize) {
  types_ = left_->output_types();
  names_ = left_->output_names();
  for (DataType t : right_->output_types()) types_.push_back(t);
  for (const std::string& n : right_->output_names()) names_.push_back(n);
}

Status CrossJoinOperator::Open(ExecContext* ctx) {
  INDBML_RETURN_NOT_OK(right_->Open(ctx));
  INDBML_RETURN_NOT_OK(left_->Open(ctx));
  right_materialized_ = false;
  left_eof_ = false;
  left_chunk_valid_ = false;
  return Status::OK();
}

Status CrossJoinOperator::EnsureMaterialized(ExecContext* ctx) {
  INDBML_RETURN_NOT_OK(
      DrainColumns(right_.get(), ctx, &right_columns_, &right_rows_));
  right_materialized_ = true;
  return Status::OK();
}

Status CrossJoinOperator::Rewind(ExecContext* ctx) {
  INDBML_RETURN_NOT_OK(left_->Rewind(ctx));
  left_eof_ = false;
  left_chunk_valid_ = false;
  if (right_->MorselDriven()) {
    right_columns_.clear();
    right_rows_ = 0;
    right_materialized_ = false;
    INDBML_RETURN_NOT_OK(right_->Rewind(ctx));
  }
  return Status::OK();
}

Status CrossJoinOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  *eof = false;
  if (!right_materialized_) INDBML_RETURN_NOT_OK(EnsureMaterialized(ctx));
  if (right_rows_ == 0) {
    *eof = true;
    return Status::OK();
  }
  const int64_t left_width = static_cast<int64_t>(left_->output_types().size());
  while (out->size < kDefaultVectorSize) {
    if (!left_chunk_valid_) {
      if (left_eof_) break;
      left_chunk_.Reset(left_->output_types());
      INDBML_RETURN_NOT_OK(left_->Next(ctx, &left_chunk_, &left_eof_));
      if (left_chunk_.size == 0) continue;
      left_row_ = 0;
      right_row_ = 0;
      left_chunk_valid_ = true;
    }
    const int64_t room = kDefaultVectorSize - out->size;
    int64_t n = 0;
    while (n < room && left_row_ < left_chunk_.size) {
      const int64_t take = std::min(room - n, right_rows_ - right_row_);
      for (int64_t j = 0; j < take; ++j) {
        left_sel_[static_cast<size_t>(n + j)] = static_cast<int32_t>(left_row_);
        right_sel_[static_cast<size_t>(n + j)] = static_cast<int32_t>(right_row_ + j);
      }
      n += take;
      right_row_ += take;
      if (right_row_ == right_rows_) {
        right_row_ = 0;
        ++left_row_;
      }
    }
    for (int64_t c = 0; c < left_width; ++c) {
      GatherIndexed(left_chunk_.column(c), left_sel_.data(), n, &out->column(c),
                    out->size);
    }
    for (size_t c = 0; c < right_columns_.size(); ++c) {
      GatherIndexed(right_columns_[c], right_sel_.data(), n,
                    &out->column(left_width + static_cast<int64_t>(c)), out->size);
    }
    out->size += n;
    if (left_row_ >= left_chunk_.size) left_chunk_valid_ = false;
  }
  *eof = left_eof_ && !left_chunk_valid_;
  return Status::OK();
}

void CrossJoinOperator::Close(ExecContext* ctx) {
  left_->Close(ctx);
  right_->Close(ctx);
}

}  // namespace indbml::exec
