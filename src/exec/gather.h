#ifndef INDBML_EXEC_GATHER_H_
#define INDBML_EXEC_GATHER_H_

#include <cstdint>

#include "exec/vector.h"

namespace indbml::exec {

/// \brief Typed gather kernels for the columnar ↔ matrix boundary and for
/// operators that emit new rows.
///
/// The float kernels are the only sanctioned way to move a Vector's rows
/// into an inference engine's input layout. All of them hoist the base
/// pointer, element type, and selection vector out of the row loop, so a
/// filtered zero-copy chunk is read with one indexed load per row — no
/// per-row Value boxing and no intermediate flatten copy.

/// Writes the vector's `v.size()` logical rows into `dst[0..n)` as floats,
/// applying the selection and converting from bool/int64 as needed. For a
/// flat float vector this is a straight memcpy.
void GatherToFloat(const Vector& v, float* dst);

/// Strided variant for row-major packs: logical row i is written to
/// `dst[i * stride]`. Used by the C-API boundary, where column c of a
/// [n x width] row-major matrix lives at `base + c` with stride `width`.
void GatherToFloatStrided(const Vector& v, float* dst, int64_t stride);

/// \brief Typed index gather: the one row-emission kernel of the operators
/// that assemble new rows (hash join, cross join, aggregation, sort).
///
/// Writes `dst` rows [dst_row, dst_row + n) as `dst[dst_row + i] =
/// src[idx[i]]`, where `idx` holds *logical* rows of `src` (its selection
/// applies; `idx == nullptr` means rows 0..n). Rows [0, dst_row) of `dst`
/// are kept, so successive calls append. `dst` must have `src`'s type and
/// becomes a flat owned vector of dst_row + n rows; no per-row Value.
void GatherIndexed(const Vector& src, const int32_t* idx, int64_t n, Vector* dst,
                   int64_t dst_row = 0);

/// \brief One batch of join pairs as runs, in probe order: run i pairs
/// logical probe row `probe[i]` with build rows [build[i], build[i] +
/// length[i]) of a key-grouped build side (HashJoinPairs); `pairs` is the
/// sum of the lengths.
struct PairRuns {
  const int32_t* probe;
  const int32_t* build;
  const int32_t* length;
  int64_t count;
  int64_t pairs;
};

/// Run gathers of a batch of join pairs, appending to `dst` from row
/// `dst_row` on as GatherIndexed does. GatherProbeRuns repeats each run's
/// probe row of `src` once per pair; GatherBuildRuns copies each run's rows
/// of the flat `src`. When every run is one pair they are GatherIndexed.
void GatherProbeRuns(const Vector& src, const PairRuns& runs, Vector* dst,
                     int64_t dst_row = 0);
void GatherBuildRuns(const Vector& src, const PairRuns& runs, Vector* dst,
                     int64_t dst_row = 0);

/// \brief Key kernels shared by hash join and hash aggregation, so both
/// agree on key equality.
///
/// NormalizeKeys writes the vector's `v.size()` logical rows as 64-bit key
/// words: bool as 0/1, BIGINT as its two's-complement bits, FLOAT as its
/// bits with -0.0 folded into 0.0 (so the two compare equal, as in SQL).
/// Two keys are equal iff their normalised words are.
void NormalizeKeys(const Vector& v, uint64_t* dst);

/// Inverse of NormalizeKeys for `dst`'s type: `dst` rows [dst_row,
/// dst_row + n) get the values of `keys[i * stride]` (stride 0 repeats one
/// key); earlier rows are kept, as in GatherIndexed.
void DenormalizeKeys(const uint64_t* keys, int64_t stride, int64_t n,
                     Vector* dst, int64_t dst_row);

/// Initial value of the per-row hashes HashKeyColumn folds keys into.
inline constexpr uint64_t kKeyHashSeed = 1469598103934665603ULL;

/// Folds one column of normalised keys into per-row hashes:
/// hashes[i] = fmix64(hashes[i] ^ keys[i]), MurmurHash3's finaliser, so
/// every bit of every key reaches every hash bit (bucket indexes may use
/// any bits). Start every row at kKeyHashSeed and fold the key columns in
/// key order.
void HashKeyColumn(const uint64_t* keys, int64_t n, uint64_t* hashes);

/// \brief Selection-aware per-row reader for boundaries that must keep
/// per-value semantics (the UDF approach boxes every value into a PyValue —
/// that tax is the experiment) but should not also pay Value boxing or a
/// per-row selection branch chain.
///
/// Construct once per (vector, batch), then call DoubleAt in the row loop.
class TypedDoubleReader {
 public:
  explicit TypedDoubleReader(const Vector& v)
      : type_(v.type()), sel_(v.selection()) {
    switch (type_) {
      case DataType::kBool:
        bools_ = v.BaseBools();
        break;
      case DataType::kInt64:
        ints_ = v.BaseInts();
        break;
      case DataType::kFloat:
        floats_ = v.BaseFloats();
        break;
    }
  }

  double DoubleAt(int64_t row) const {
    const int64_t r = sel_ != nullptr ? (*sel_)[row] : row;
    switch (type_) {
      case DataType::kBool:
        return bools_[r] != 0 ? 1.0 : 0.0;
      case DataType::kInt64:
        return static_cast<double>(ints_[r]);
      case DataType::kFloat:
        return static_cast<double>(floats_[r]);
    }
    return 0.0;
  }

 private:
  DataType type_;
  const SelectionVector* sel_ = nullptr;
  const uint8_t* bools_ = nullptr;
  const int64_t* ints_ = nullptr;
  const float* floats_ = nullptr;
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_GATHER_H_
