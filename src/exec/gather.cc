#include "exec/gather.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/simd.h"

namespace indbml::exec {

namespace {

using simd::F32x8;

template <typename T>
void GatherAsFloat(const T* base, const SelectionVector* sel, int64_t n,
                   float* dst) {
  if (sel == nullptr) {
    for (int64_t i = 0; i < n; ++i) dst[i] = static_cast<float>(base[i]);
    return;
  }
  const int32_t* idx = sel->data();
  for (int64_t i = 0; i < n; ++i) dst[i] = static_cast<float>(base[idx[i]]);
}

// Float + selection is the hot shape (a filtered chunk feeding inference):
// 8-lane indexed gather, pure loads, so the SIMD and scalar paths are
// trivially bit-identical. Bool/int64 sources convert per lane (AVX2 has no
// int64->float conversion) and stay in the scalar template above.
void GatherFloatSelected(const float* base, const int32_t* idx, int64_t n,
                         float* dst) {
  int64_t i = 0;
  if (simd::UseSimd()) {
    for (; i + simd::kWidth <= n; i += simd::kWidth) {
      F32x8::Gather(base, idx + i).Store(dst + i);
    }
  }
  for (; i < n; ++i) dst[i] = base[idx[i]];
}

template <typename T>
void GatherAsFloatStrided(const T* base, const SelectionVector* sel, int64_t n,
                          float* dst, int64_t stride) {
  if (sel == nullptr) {
    for (int64_t i = 0; i < n; ++i) dst[i * stride] = static_cast<float>(base[i]);
    return;
  }
  const int32_t* idx = sel->data();
  for (int64_t i = 0; i < n; ++i) {
    dst[i * stride] = static_cast<float>(base[idx[i]]);
  }
}

// Strided float + selection: vector gather on the load side, lane stores on
// the scatter side (there is no strided store in AVX2/NEON).
void GatherFloatSelectedStrided(const float* base, const int32_t* idx,
                                int64_t n, float* dst, int64_t stride) {
  int64_t i = 0;
  if (simd::UseSimd()) {
    float lanes[simd::kWidth];
    for (; i + simd::kWidth <= n; i += simd::kWidth) {
      F32x8::Gather(base, idx + i).Store(lanes);
      for (int64_t l = 0; l < simd::kWidth; ++l) {
        dst[(i + l) * stride] = lanes[l];
      }
    }
  }
  for (; i < n; ++i) dst[i * stride] = base[idx[i]];
}

template <typename T>
void GatherTyped(const T* base, const SelectionVector* sel, const int32_t* idx,
                 int64_t n, T* dst) {
  if (idx == nullptr) {
    if (sel == nullptr) {
      std::memcpy(dst, base, static_cast<size_t>(n) * sizeof(T));
      return;
    }
    idx = sel->data();
    sel = nullptr;
  }
  if (sel == nullptr) {
    for (int64_t i = 0; i < n; ++i) dst[i] = base[idx[i]];
    return;
  }
  const int32_t* s = sel->data();
  for (int64_t i = 0; i < n; ++i) dst[i] = base[s[idx[i]]];
}

template <typename T>
void NormalizeTyped(const T* base, const SelectionVector* sel, int64_t n,
                    uint64_t* dst) {
  auto word = [](T x) -> uint64_t {
    if constexpr (std::is_same_v<T, float>) {
      if (x == 0.0f) x = 0.0f;  // -0.0 and 0.0 are one key
      uint32_t bits;
      std::memcpy(&bits, &x, sizeof(bits));
      return bits;
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      return x != 0 ? 1 : 0;
    } else {
      return static_cast<uint64_t>(x);
    }
  };
  if (sel == nullptr) {
    for (int64_t i = 0; i < n; ++i) dst[i] = word(base[i]);
    return;
  }
  const int32_t* s = sel->data();
  for (int64_t i = 0; i < n; ++i) dst[i] = word(base[s[i]]);
}

template <typename T, bool kSelected>
void GatherProbeRunsTyped(const T* base, const int32_t* sel, const PairRuns& runs,
                          T* dst) {
  for (int64_t r = 0; r < runs.count; ++r) {
    const T v = base[kSelected ? sel[runs.probe[r]] : runs.probe[r]];
    std::fill(dst, dst + runs.length[r], v);
    dst += runs.length[r];
  }
}

template <typename T>
void GatherProbeRunsTyped(const T* base, const SelectionVector* sel, const PairRuns& runs,
                          T* dst) {
  if (sel == nullptr) {
    GatherProbeRunsTyped<T, false>(base, nullptr, runs, dst);
  } else {
    GatherProbeRunsTyped<T, true>(base, sel->data(), runs, dst);
  }
}

template <typename T>
void GatherBuildRunsTyped(const T* base, const PairRuns& runs, T* dst) {
  for (int64_t r = 0; r < runs.count; ++r) {
    std::copy(base + runs.build[r], base + runs.build[r] + runs.length[r], dst);
    dst += runs.length[r];
  }
}

}  // namespace

void GatherIndexed(const Vector& src, const int32_t* idx, int64_t n, Vector* dst,
                   int64_t dst_row) {
  INDBML_DCHECK(src.type() == dst->type());
  dst->ResizeForOverwrite(dst_row + n, dst_row);
  if (n == 0) return;
  const SelectionVector* sel = src.selection();
  switch (src.type()) {
    case DataType::kBool:
      GatherTyped(src.BaseBools(), sel, idx, n, dst->bools() + dst_row);
      return;
    case DataType::kInt64:
      GatherTyped(src.BaseInts(), sel, idx, n, dst->ints() + dst_row);
      return;
    case DataType::kFloat:
      GatherTyped(src.BaseFloats(), sel, idx, n, dst->floats() + dst_row);
      return;
  }
}

void GatherProbeRuns(const Vector& src, const PairRuns& runs, Vector* dst,
                     int64_t dst_row) {
  if (runs.count == runs.pairs) {
    GatherIndexed(src, runs.probe, runs.pairs, dst, dst_row);
    return;
  }
  INDBML_DCHECK(src.type() == dst->type());
  dst->ResizeForOverwrite(dst_row + runs.pairs, dst_row);
  const SelectionVector* sel = src.selection();
  switch (src.type()) {
    case DataType::kBool:
      GatherProbeRunsTyped(src.BaseBools(), sel, runs, dst->bools() + dst_row);
      return;
    case DataType::kInt64:
      GatherProbeRunsTyped(src.BaseInts(), sel, runs, dst->ints() + dst_row);
      return;
    case DataType::kFloat:
      GatherProbeRunsTyped(src.BaseFloats(), sel, runs, dst->floats() + dst_row);
      return;
  }
}

void GatherBuildRuns(const Vector& src, const PairRuns& runs, Vector* dst,
                     int64_t dst_row) {
  if (runs.count == runs.pairs) {
    GatherIndexed(src, runs.build, runs.pairs, dst, dst_row);
    return;
  }
  INDBML_DCHECK(src.type() == dst->type() && src.selection() == nullptr);
  dst->ResizeForOverwrite(dst_row + runs.pairs, dst_row);
  switch (src.type()) {
    case DataType::kBool:
      GatherBuildRunsTyped(src.BaseBools(), runs, dst->bools() + dst_row);
      return;
    case DataType::kInt64:
      GatherBuildRunsTyped(src.BaseInts(), runs, dst->ints() + dst_row);
      return;
    case DataType::kFloat:
      GatherBuildRunsTyped(src.BaseFloats(), runs, dst->floats() + dst_row);
      return;
  }
}

void NormalizeKeys(const Vector& v, uint64_t* dst) {
  const int64_t n = v.size();
  if (n == 0) return;
  switch (v.type()) {
    case DataType::kBool:
      NormalizeTyped(v.BaseBools(), v.selection(), n, dst);
      return;
    case DataType::kInt64:
      NormalizeTyped(v.BaseInts(), v.selection(), n, dst);
      return;
    case DataType::kFloat:
      NormalizeTyped(v.BaseFloats(), v.selection(), n, dst);
      return;
  }
}

void DenormalizeKeys(const uint64_t* keys, int64_t stride, int64_t n,
                     Vector* dst, int64_t dst_row) {
  dst->ResizeForOverwrite(dst_row + n, dst_row);
  if (n == 0) return;
  switch (dst->type()) {
    case DataType::kBool: {
      uint8_t* out = dst->bools() + dst_row;
      for (int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<uint8_t>(keys[i * stride]);
      }
      return;
    }
    case DataType::kInt64: {
      int64_t* out = dst->ints() + dst_row;
      for (int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<int64_t>(keys[i * stride]);
      }
      return;
    }
    case DataType::kFloat: {
      float* out = dst->floats() + dst_row;
      for (int64_t i = 0; i < n; ++i) {
        const uint32_t bits = static_cast<uint32_t>(keys[i * stride]);
        std::memcpy(&out[i], &bits, sizeof(bits));
      }
      return;
    }
  }
}

void HashKeyColumn(const uint64_t* keys, int64_t n, uint64_t* hashes) {
  for (int64_t i = 0; i < n; ++i) {
    uint64_t h = hashes[i] ^ keys[i];
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    hashes[i] = h;
  }
}

void GatherToFloat(const Vector& v, float* dst) {
  const int64_t n = v.size();
  const SelectionVector* sel = v.selection();
  switch (v.type()) {
    case DataType::kBool:
      GatherAsFloat(v.BaseBools(), sel, n, dst);
      return;
    case DataType::kInt64:
      GatherAsFloat(v.BaseInts(), sel, n, dst);
      return;
    case DataType::kFloat:
      if (sel == nullptr) {
        std::memcpy(dst, v.BaseFloats(), static_cast<size_t>(n) * sizeof(float));
      } else {
        GatherFloatSelected(v.BaseFloats(), sel->data(), n, dst);
      }
      return;
  }
}

void GatherToFloatStrided(const Vector& v, float* dst, int64_t stride) {
  const int64_t n = v.size();
  const SelectionVector* sel = v.selection();
  switch (v.type()) {
    case DataType::kBool:
      GatherAsFloatStrided(v.BaseBools(), sel, n, dst, stride);
      return;
    case DataType::kInt64:
      GatherAsFloatStrided(v.BaseInts(), sel, n, dst, stride);
      return;
    case DataType::kFloat:
      if (sel == nullptr) {
        GatherAsFloatStrided(v.BaseFloats(), nullptr, n, dst, stride);
      } else {
        GatherFloatSelectedStrided(v.BaseFloats(), sel->data(), n, dst, stride);
      }
      return;
  }
}

}  // namespace indbml::exec
