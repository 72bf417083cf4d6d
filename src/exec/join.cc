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

Status HashJoinPairs::EnsureBuilt(ExecContext* ctx) {
  if (built_) return Status::OK();
  INDBML_RETURN_NOT_OK(
      DrainColumns(build_.get(), ctx, &build_columns_, &build_rows_));
  INDBML_RETURN_NOT_OK(NormalizeAndHashKeys(build_keys_,
                                            ColumnsChunk(build_columns_, build_rows_),
                                            0, &build_norm_keys_, &build_hashes_));
  // At least two buckets per build row keeps chains ~1 long; the bucket is
  // the hash's high bits.
  int bits = 1;
  while ((int64_t{1} << bits) < 2 * build_rows_) ++bits;
  bucket_shift_ = 64 - bits;
  heads_.assign(size_t{1} << bits, -1);
  next_.resize(static_cast<size_t>(build_rows_));
  // Inserting back to front at the heads leaves every chain in build order.
  for (int64_t r = build_rows_ - 1; r >= 0; --r) {
    int32_t& head = heads_[build_hashes_[static_cast<size_t>(r)] >> bucket_shift_];
    next_[static_cast<size_t>(r)] = head;
    head = static_cast<int32_t>(r);
  }
  // Sized here, not at construction: a worker whose plan never runs a
  // morsel then holds (and reports) nothing.
  probe_sel_.resize(kDefaultVectorSize);
  build_sel_.resize(kDefaultVectorSize);
  Track();
  built_ = true;
  return Status::OK();
}

void HashJoinPairs::Track() {
  int64_t bytes = TableBytes() + CapacityBytes(probe_hashes_) + CapacityBytes(probe_sel_) +
                  CapacityBytes(build_sel_);
  for (const auto& col : probe_norm_keys_) bytes += CapacityBytes(col);
  tracked_.Set(bytes);
}

int64_t HashJoinPairs::TableBytes() const {
  int64_t bytes = CapacityBytes(heads_) + CapacityBytes(next_) +
                  CapacityBytes(build_hashes_);
  for (const auto& col : build_norm_keys_) bytes += CapacityBytes(col);
  return bytes;
}

void HashJoinPairs::ClearBuild() {
  // The table's arrays keep their capacity (and its tracked bytes) for the
  // next morsel's rebuild.
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
  chain_row_ = -1;
  probe_chunk_valid_ = true;
  return Status::OK();
}

int64_t HashJoinPairs::CollectMatches(int64_t room) {
  // The walk runs on locals (raw arrays, the cursor in registers) and
  // writes the cursor back when it stops.
  const size_t num_keys = probe_norm_keys_.size();
  const int32_t* heads = heads_.data();
  const int32_t* next = next_.data();
  const uint64_t* build_hashes = build_hashes_.data();
  const uint64_t* probe_hashes = probe_hashes_.data();
  int32_t* probe_sel = probe_sel_.data();
  int32_t* build_sel = build_sel_.data();
  const int64_t rows = probe_chunk_.size;
  int64_t n = 0;
  int64_t p = probe_row_;
  int32_t b = chain_row_;
  for (; p < rows; ++p, b = -1) {
    const uint64_t h = probe_hashes[p];
    for (b = b >= 0 ? b : heads[h >> bucket_shift_]; b >= 0; b = next[b]) {
      if (build_hashes[b] != h) continue;
      bool equal = true;
      for (size_t k = 0; k < num_keys && equal; ++k) {
        equal = build_norm_keys_[k][static_cast<size_t>(b)] ==
                probe_norm_keys_[k][static_cast<size_t>(p)];
      }
      if (!equal) continue;
      if (n == room) {
        probe_row_ = p;
        chain_row_ = b;
        return n;
      }
      probe_sel[n] = static_cast<int32_t>(p);
      build_sel[n] = b;
      ++n;
    }
  }
  probe_row_ = p;
  chain_row_ = -1;
  return n;
}

Status HashJoinPairs::Next(ExecContext* ctx, int64_t room, int64_t* n) {
  *n = 0;
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
    for (int64_t c = 0; c < probe_width; ++c) {
      GatherIndexed(pairs_.probe_chunk().column(c), pairs_.probe_sel(), n,
                    &out->column(c), out->size);
    }
    const std::vector<Vector>& build = pairs_.build_columns();
    for (size_t c = 0; c < build.size(); ++c) {
      GatherIndexed(build[c], pairs_.build_sel(), n,
                    &out->column(probe_width + static_cast<int64_t>(c)), out->size);
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
