#ifndef INDBML_EXEC_VECTOR_H_
#define INDBML_EXEC_VECTOR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/config.h"
#include "common/logging.h"
#include "storage/types.h"

namespace indbml::exec {

using storage::DataType;
using storage::Value;

/// \brief Immutable list of row indices selecting a subset of a vector's
/// base window (DuckDB-style selection vector).
///
/// Shared by every column of a filtered chunk: a filter emits one
/// SelectionVector and attaches it to all of its input's column views
/// instead of re-materialising the survivors.
class SelectionVector {
 public:
  explicit SelectionVector(std::vector<int32_t> indices)
      : indices_(std::move(indices)) {}

  int64_t size() const { return static_cast<int64_t>(indices_.size()); }
  const int32_t* data() const { return indices_.data(); }
  int32_t operator[](int64_t i) const { return indices_[static_cast<size_t>(i)]; }

 private:
  std::vector<int32_t> indices_;
};

using SelectionPtr = std::shared_ptr<const SelectionVector>;

/// \brief One column's values for a batch of up to kDefaultVectorSize rows.
///
/// A Vector is a *view* until someone needs new storage. Three
/// representations share one class:
///
///  - **owned**: the vector holds the only reference to its Buffer and may
///    write it in place (fresh kernel outputs, flattened data);
///  - **view**: a contiguous window `[offset, offset + size)` over a shared
///    Buffer — zero-copy scans emit these straight over table storage;
///  - **view + selection**: the same window narrowed by a SelectionVector —
///    filters emit these instead of copying survivors.
///
/// Copying a Vector never copies data: the copy shares the Buffer and
/// becomes a view. Every mutating entry point (Resize growth,
/// ResizeForOverwrite, SetValue, Append, the non-const data accessors) goes
/// through EnsureWritable(), which materialises a private flat buffer only
/// when the current one is shared or selected (copy-on-write). Operators
/// that need contiguous rows for pointer arithmetic call Flatten()
/// explicitly; selection-agnostic random access goes through
/// GetValue()/Get*At(). Buffer-level MemoryTracker accounting means a
/// thousand views over one column cost one column.
class Vector {
 public:
  Vector() : type_(DataType::kInt64) {}
  explicit Vector(DataType type) : type_(type) {}

  /// Copies share the buffer (the copy is a view); see class comment.
  Vector(const Vector&) = default;
  Vector& operator=(const Vector&) = default;

  Vector(Vector&& other) noexcept
      : type_(other.type_),
        size_(other.size_),
        base_rows_(other.base_rows_),
        offset_(other.offset_),
        buffer_(std::move(other.buffer_)),
        sel_(std::move(other.sel_)) {
    other.size_ = 0;
    other.base_rows_ = 0;
    other.offset_ = 0;
  }
  Vector& operator=(Vector&& other) noexcept {
    type_ = other.type_;
    size_ = other.size_;
    base_rows_ = other.base_rows_;
    offset_ = other.offset_;
    buffer_ = std::move(other.buffer_);
    sel_ = std::move(other.sel_);
    other.size_ = 0;
    other.base_rows_ = 0;
    other.offset_ = 0;
    return *this;
  }

  /// Zero-copy flat view over `rows` elements of `buffer` starting at
  /// element `offset` (scans use this to expose table storage directly).
  static Vector View(DataType type, BufferPtr buffer, int64_t offset,
                     int64_t rows) {
    Vector v(type);
    v.buffer_ = std::move(buffer);
    v.offset_ = offset;
    v.size_ = rows;
    v.base_rows_ = rows;
    return v;
  }

  /// This vector narrowed by `sel` (indices are *logical* rows of this
  /// vector, i.e. already-selected positions compose). Never copies data.
  Vector WithSelection(SelectionPtr sel) const {
    Vector v(type_);
    v.buffer_ = buffer_;
    v.offset_ = offset_;
    v.base_rows_ = base_rows_;
    if (sel_ == nullptr) {
      v.sel_ = std::move(sel);
    } else {
      // Compose: materialise indices (cheap — O(output rows), no data copy).
      std::vector<int32_t> composed;
      composed.reserve(static_cast<size_t>(sel->size()));
      for (int64_t i = 0; i < sel->size(); ++i) {
        composed.push_back((*sel_)[(*sel)[i]]);
      }
      v.sel_ = std::make_shared<const SelectionVector>(std::move(composed));
    }
    v.size_ = v.sel_->size();
    return v;
  }

  DataType type() const { return type_; }
  int64_t size() const { return size_; }

  bool has_selection() const { return sel_ != nullptr; }
  const SelectionVector* selection() const { return sel_.get(); }
  /// Length of the contiguous base window the selection indexes into
  /// (== size() for flat vectors).
  int64_t base_rows() const { return base_rows_; }
  /// The underlying shared buffer (lifetime tests / diagnostics).
  const BufferPtr& buffer() const { return buffer_; }

  /// Grows (copy-on-write, zero-filling new rows) or shrinks (in place,
  /// views keep their representation) to `n` logical rows.
  void Resize(int64_t n) {
    if (n <= size_) {
      size_ = n;
      if (sel_ == nullptr) base_rows_ = n;
      return;
    }
    EnsureWritable(n);
    uint8_t* base = buffer_->data();
    const int64_t elem = ElemSize();
    std::fill(base + size_ * elem, base + n * elem, uint8_t{0});
    size_ = n;
    base_rows_ = n;
  }

  /// Makes this a flat owned vector of `n` rows that keeps its first `keep`
  /// logical rows (keep <= min(size(), n)) and leaves rows [keep, n)
  /// uninitialised for the caller to overwrite. Growth is geometric, so
  /// appending batch after batch stays amortised O(1) (gather kernels).
  void ResizeForOverwrite(int64_t n, int64_t keep = 0) {
    INDBML_DCHECK(keep <= size_ && keep <= n);
    if (keep == 0) {
      Clear();
    } else {
      Resize(keep);
    }
    EnsureWritable(n);
    size_ = n;
    base_rows_ = n;
  }

  /// Empties the vector. A private buffer is kept for reuse (the DataChunk
  /// Reset hot path); shared/selected buffers are released so the producer
  /// of the next batch starts from fresh storage.
  void Clear() {
    size_ = 0;
    base_rows_ = 0;
    if (sel_ != nullptr || offset_ != 0 ||
        (buffer_ != nullptr && buffer_.use_count() > 1)) {
      buffer_.reset();
      offset_ = 0;
      sel_.reset();
    }
  }

  /// Contiguous typed data. Valid only without a selection (flat views are
  /// contiguous; call Flatten() first if a selection may be present). The
  /// non-const overloads make the vector writable (copy-on-write).
  const uint8_t* bools() const {
    INDBML_DCHECK(sel_ == nullptr);
    return BaseBools();
  }
  const int64_t* ints() const {
    INDBML_DCHECK(sel_ == nullptr);
    return BaseInts();
  }
  const float* floats() const {
    INDBML_DCHECK(sel_ == nullptr);
    return BaseFloats();
  }
  uint8_t* bools() {
    EnsureWritable(size_);
    return buffer_ != nullptr ? buffer_->data() : nullptr;
  }
  int64_t* ints() {
    EnsureWritable(size_);
    return buffer_ != nullptr ? reinterpret_cast<int64_t*>(buffer_->data())
                              : nullptr;
  }
  float* floats() {
    EnsureWritable(size_);
    return buffer_ != nullptr ? reinterpret_cast<float*>(buffer_->data())
                              : nullptr;
  }

  /// Base-window typed pointers: element i is base row i, *before* the
  /// selection is applied. Gather kernels (exec/gather.h) hoist these plus
  /// selection()->data() out of their row loops.
  const uint8_t* BaseBools() const {
    INDBML_DCHECK(type_ == DataType::kBool);
    return buffer_ != nullptr ? buffer_->data() + offset_ : nullptr;
  }
  const int64_t* BaseInts() const {
    INDBML_DCHECK(type_ == DataType::kInt64);
    return buffer_ != nullptr
               ? reinterpret_cast<const int64_t*>(buffer_->data()) + offset_
               : nullptr;
  }
  const float* BaseFloats() const {
    INDBML_DCHECK(type_ == DataType::kFloat);
    return buffer_ != nullptr
               ? reinterpret_cast<const float*>(buffer_->data()) + offset_
               : nullptr;
  }

  /// Representation-agnostic typed row access (applies the selection).
  bool GetBoolAt(int64_t row) const { return BaseBools()[RowIndex(row)] != 0; }
  int64_t GetInt64At(int64_t row) const { return BaseInts()[RowIndex(row)]; }
  float GetFloatAt(int64_t row) const { return BaseFloats()[RowIndex(row)]; }

  Value GetValue(int64_t row) const {
    switch (type_) {
      case DataType::kBool:
        return Value::Bool(GetBoolAt(row));
      case DataType::kInt64:
        return Value::Int64(GetInt64At(row));
      case DataType::kFloat:
        return Value::Float(GetFloatAt(row));
    }
    return Value();
  }

  /// Stores `v` at `row`, coercing numerically if the value's type differs
  /// from the vector's type (used by CASE branches and casts).
  void SetValue(int64_t row, const Value& v) {
    EnsureWritable(size_);
    uint8_t* base = buffer_->data();
    switch (type_) {
      case DataType::kBool:
        base[row] = (v.type == DataType::kBool ? v.b : v.AsDouble() != 0) ? 1 : 0;
        break;
      case DataType::kInt64:
        reinterpret_cast<int64_t*>(base)[row] =
            v.type == DataType::kInt64 ? v.i : static_cast<int64_t>(v.AsDouble());
        break;
      case DataType::kFloat:
        reinterpret_cast<float*>(base)[row] =
            v.type == DataType::kFloat ? v.f : static_cast<float>(v.AsDouble());
        break;
    }
  }

  void Append(const Value& v) {
    Resize(size_ + 1);
    SetValue(size_ - 1, v);
  }

  /// Materialises selected rows into a private contiguous buffer; no-op for
  /// flat vectors. After Flatten() the contiguous accessors are valid and
  /// the vector is safe to mutate. Operators that need contiguous owned
  /// data (hash-join keys, aggregation, matrix packs) call this at their
  /// boundary; everything upstream stays zero-copy.
  void Flatten();

 private:
  int64_t ElemSize() const { return storage::DataTypeSize(type_); }

  int64_t RowIndex(int64_t row) const {
    return sel_ != nullptr ? (*sel_)[row] : row;
  }

  /// Guarantees a private (use_count == 1), offset-free, selection-free
  /// buffer with capacity for `min_rows` rows, preserving the current
  /// logical contents. The copy-on-write core of every mutator.
  void EnsureWritable(int64_t min_rows);

  DataType type_;
  int64_t size_ = 0;       ///< logical rows (== selection size when selected)
  int64_t base_rows_ = 0;  ///< contiguous window length behind the selection
  int64_t offset_ = 0;     ///< element offset of the window in the buffer
  BufferPtr buffer_;
  SelectionPtr sel_;
};

/// \brief A batch of rows in columnar layout: the unit of data flow between
/// operators (x100-style vectorized execution).
struct DataChunk {
  std::vector<Vector> columns;
  int64_t size = 0;

  /// Prepares the chunk for the given schema. When the chunk already has
  /// matching columns (the common Next() hot-path case: the same chunk is
  /// Reset between iterations) the column buffers are kept and merely
  /// cleared, so steady-state execution does not reallocate per batch.
  void Reset(const std::vector<DataType>& types) {
    if (columns.size() == types.size()) {
      bool same = true;
      for (size_t i = 0; i < types.size(); ++i) {
        if (columns[i].type() != types[i]) {
          same = false;
          break;
        }
      }
      if (same) {
        for (auto& c : columns) c.Clear();
        size = 0;
        return;
      }
    }
    columns.clear();
    columns.reserve(types.size());
    for (DataType t : types) columns.emplace_back(t);
    size = 0;
  }

  int64_t num_columns() const { return static_cast<int64_t>(columns.size()); }

  Vector& column(int64_t i) { return columns[static_cast<size_t>(i)]; }
  const Vector& column(int64_t i) const { return columns[static_cast<size_t>(i)]; }

  /// Sets every column's size to `n` (after writing data directly).
  void SetCardinality(int64_t n) {
    size = n;
    for (auto& c : columns) c.Resize(n);
  }
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_VECTOR_H_
