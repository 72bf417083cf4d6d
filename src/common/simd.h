#ifndef INDBML_COMMON_SIMD_H_
#define INDBML_COMMON_SIMD_H_

// Portable 8-wide SIMD wrappers for the hot kernels (blas, expression eval,
// gather, fused scan).
//
// This header is the ONLY place in the tree where raw vendor intrinsics
// (_mm*, vld*, __m256, float32x4_t, ...) may appear; the `raw-intrinsics`
// analyzer pass enforces that. Kernels program against three types:
//
//   F32x8  - 8 float32 lanes
//   I64x8  - 8 int64 lanes
//   Mask8  - 8 boolean lanes, stored as a bitmask (bit i = lane i)
//
// Backend selection is compile-time: the INDBML_SIMD CMake option defines
// the INDBML_SIMD macro, and the header picks AVX2 (x86-64), NEON (aarch64)
// or the scalar-struct fallback from the architecture macros. On top of
// that, `Enabled()` / `SetEnabled()` is a runtime switch: every kernel in
// the tree keeps its scalar loop compiled and dispatches on `UseSimd()`, so
// tests and benchmarks can force the scalar path in a SIMD build for
// bit-identity checks and ablation.
//
// Bit-identity contract: every wrapper maps to exactly one IEEE-754
// operation per lane (separate mul + add, never FMA; the build adds
// -ffp-contract=off so the compiler cannot contract the scalar loops
// either). A kernel written with the same per-element operation order in
// its scalar and SIMD paths therefore produces bit-identical output.
// Comparison wrappers match C scalar semantics exactly, including NaN:
// Eq/Lt/Le/Gt/Ge are false on unordered operands, Ne is true.

#include <atomic>
#include <cstdint>
#include <cstring>

#if defined(INDBML_SIMD) && defined(__AVX2__)
#define INDBML_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(INDBML_SIMD) && defined(__ARM_NEON) && defined(__aarch64__)
#define INDBML_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace indbml::simd {

/// All kernels are written against 8-wide vectors regardless of backend.
inline constexpr int kWidth = 8;

#if defined(INDBML_SIMD_AVX2)
inline constexpr bool kCompiled = true;
inline constexpr const char* kBackend = "avx2";
#elif defined(INDBML_SIMD_NEON)
inline constexpr bool kCompiled = true;
inline constexpr const char* kBackend = "neon";
#else
inline constexpr bool kCompiled = false;
inline constexpr const char* kBackend = "scalar";
#endif

namespace detail {
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

// 256-entry table expanding a lane bitmask into eight 0/1 bytes (one uint64
// word), so mask<->byte-vector conversions are a lookup + 8-byte store.
constexpr uint64_t ExpandMaskToBytes(unsigned bits) {
  uint64_t w = 0;
  for (int i = 0; i < 8; ++i) {
    if ((bits >> i) & 1u) w |= uint64_t{1} << (8 * i);
  }
  return w;
}

struct ByteLut {
  uint64_t word[256];
  constexpr ByteLut() : word() {
    for (unsigned b = 0; b < 256; ++b) word[b] = ExpandMaskToBytes(b);
  }
};
inline constexpr ByteLut kByteLut{};
}  // namespace detail

/// Runtime kill switch for the vector paths (default on). Relaxed atomics:
/// flipping it mid-kernel is benign, both paths compute identical results.
inline bool Enabled() {
  return detail::EnabledFlag().load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  detail::EnabledFlag().store(on, std::memory_order_relaxed);
}

/// True when a kernel should take its vector path.
inline bool UseSimd() { return kCompiled && Enabled(); }

/// RAII toggle used by tests/benches to force the scalar path in a scope.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnable() { SetEnabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

/// 8 boolean lanes as a bitmask. Canonical interchange format between the
/// compare kernels (which produce it) and selection building / blends
/// (which consume it).
struct Mask8 {
  uint8_t bits = 0;

  static Mask8 None() { return {0}; }
  static Mask8 All() { return {0xFF}; }
  static Mask8 FromBits(uint8_t b) { return {b}; }

  /// Reads 8 bytes; a nonzero byte sets the lane. Branchless: per-byte
  /// nonzero detection into each byte's MSB (the add cannot carry across
  /// byte boundaries), then one multiply packs the MSBs into the top byte —
  /// cross terms of the multiply land at pairwise-distinct bit positions
  /// below it, so no carries corrupt the result.
  static Mask8 FromBytes(const uint8_t* p) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    const uint64_t nz =
        (((w & 0x7F7F7F7F7F7F7F7FULL) + 0x7F7F7F7F7F7F7F7FULL) | w) &
        0x8080808080808080ULL;
    return {static_cast<uint8_t>(((nz >> 7) * 0x0102040810204080ULL) >> 56)};
  }

  /// Writes 8 bytes of 0/1.
  void StoreBytes(uint8_t* p) const {
    const uint64_t w = detail::kByteLut.word[bits];
    std::memcpy(p, &w, 8);
  }

  /// p[i] |= lane i (bytes must be 0/1 normalized, which StoreBytes emits).
  void OrIntoBytes(uint8_t* p) const {
    uint64_t w;
    std::memcpy(&w, p, 8);
    w |= detail::kByteLut.word[bits];
    std::memcpy(p, &w, 8);
  }

  bool AnyTrue() const { return bits != 0; }
  bool AllTrue() const { return bits == 0xFF; }
  int CountTrue() const { return __builtin_popcount(bits); }

  friend Mask8 operator&(Mask8 a, Mask8 b) {
    return {static_cast<uint8_t>(a.bits & b.bits)};
  }
  friend Mask8 operator|(Mask8 a, Mask8 b) {
    return {static_cast<uint8_t>(a.bits | b.bits)};
  }
  Mask8 operator~() const { return {static_cast<uint8_t>(~bits & 0xFF)}; }
};

#if defined(INDBML_SIMD_AVX2)

namespace detail {
// Expands a Mask8 into a per-lane 32-bit (resp. 64-bit) all-ones mask.
inline __m256i MaskTo32(Mask8 m) {
  const __m256i lanes = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i b = _mm256_set1_epi32(m.bits);
  return _mm256_cmpeq_epi32(_mm256_and_si256(b, lanes), lanes);
}
inline __m256i MaskTo64(uint8_t nibble) {
  const __m256i lanes = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i b = _mm256_set1_epi64x(nibble);
  return _mm256_cmpeq_epi64(_mm256_and_si256(b, lanes), lanes);
}
}  // namespace detail

struct F32x8 {
  __m256 v;

  static F32x8 Load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static F32x8 Broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static F32x8 Zero() { return {_mm256_setzero_ps()}; }
  /// dst lane i = base[idx[i]].
  static F32x8 Gather(const float* base, const int32_t* idx) {
    const __m256i iv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return {_mm256_i32gather_ps(base, iv, 4)};
  }
  void Store(float* p) const { _mm256_storeu_ps(p, v); }

  friend F32x8 operator+(F32x8 a, F32x8 b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend F32x8 operator-(F32x8 a, F32x8 b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend F32x8 operator*(F32x8 a, F32x8 b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend F32x8 operator/(F32x8 a, F32x8 b) { return {_mm256_div_ps(a.v, b.v)}; }
  /// Matches `a > b ? a : b` per lane, including NaN/-0 behavior of
  /// maxps (returns b on unordered), which is what the scalar relu uses.
  static F32x8 Max(F32x8 a, F32x8 b) { return {_mm256_max_ps(a.v, b.v)}; }
  /// IEEE negate (sign-bit flip), identical to scalar `-x`.
  F32x8 Neg() const {
    return {_mm256_xor_ps(v, _mm256_set1_ps(-0.0f))};
  }

  static Mask8 Eq(F32x8 a, F32x8 b) {
    return {static_cast<uint8_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(a.v, b.v, _CMP_EQ_OQ)))};
  }
  static Mask8 Ne(F32x8 a, F32x8 b) {
    return {static_cast<uint8_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(a.v, b.v, _CMP_NEQ_UQ)))};
  }
  static Mask8 Lt(F32x8 a, F32x8 b) {
    return {static_cast<uint8_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)))};
  }
  static Mask8 Le(F32x8 a, F32x8 b) {
    return {static_cast<uint8_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(a.v, b.v, _CMP_LE_OQ)))};
  }
  static Mask8 Gt(F32x8 a, F32x8 b) {
    return {static_cast<uint8_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)))};
  }
  static Mask8 Ge(F32x8 a, F32x8 b) {
    return {static_cast<uint8_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)))};
  }

  /// Lane i = m[i] ? a[i] : b[i].
  static F32x8 Select(Mask8 m, F32x8 a, F32x8 b) {
    return {_mm256_blendv_ps(b.v, a.v,
                             _mm256_castsi256_ps(detail::MaskTo32(m)))};
  }
};

struct I64x8 {
  __m256i lo, hi;  // lanes 0..3 and 4..7

  static I64x8 Load(const int64_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4))};
  }
  static I64x8 Broadcast(int64_t x) {
    const __m256i b = _mm256_set1_epi64x(x);
    return {b, b};
  }
  static I64x8 Zero() {
    const __m256i z = _mm256_setzero_si256();
    return {z, z};
  }
  void Store(int64_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 4), hi);
  }

  friend I64x8 operator+(I64x8 a, I64x8 b) {
    return {_mm256_add_epi64(a.lo, b.lo), _mm256_add_epi64(a.hi, b.hi)};
  }
  friend I64x8 operator-(I64x8 a, I64x8 b) {
    return {_mm256_sub_epi64(a.lo, b.lo), _mm256_sub_epi64(a.hi, b.hi)};
  }
  I64x8 Neg() const { return Zero() - *this; }

  static Mask8 Eq(I64x8 a, I64x8 b) {
    const int l = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(a.lo, b.lo)));
    const int h = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(a.hi, b.hi)));
    return {static_cast<uint8_t>(l | (h << 4))};
  }
  static Mask8 Gt(I64x8 a, I64x8 b) {  // signed
    const int l = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(a.lo, b.lo)));
    const int h = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(a.hi, b.hi)));
    return {static_cast<uint8_t>(l | (h << 4))};
  }
  static Mask8 Ne(I64x8 a, I64x8 b) { return ~Eq(a, b); }
  static Mask8 Lt(I64x8 a, I64x8 b) { return Gt(b, a); }
  static Mask8 Le(I64x8 a, I64x8 b) { return ~Gt(a, b); }
  static Mask8 Ge(I64x8 a, I64x8 b) { return ~Gt(b, a); }

  /// Lane i = m[i] ? a[i] : b[i].
  static I64x8 Select(Mask8 m, I64x8 a, I64x8 b) {
    const __m256i ml = detail::MaskTo64(m.bits & 0x0F);
    const __m256i mh = detail::MaskTo64((m.bits >> 4) & 0x0F);
    return {_mm256_blendv_epi8(b.lo, a.lo, ml),
            _mm256_blendv_epi8(b.hi, a.hi, mh)};
  }
};

#elif defined(INDBML_SIMD_NEON)

struct F32x8 {
  float32x4_t lo, hi;  // lanes 0..3 and 4..7

  static F32x8 Load(const float* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
  static F32x8 Broadcast(float x) { return {vdupq_n_f32(x), vdupq_n_f32(x)}; }
  static F32x8 Zero() { return Broadcast(0.0f); }
  static F32x8 Gather(const float* base, const int32_t* idx) {
    float tmp[8];
    for (int i = 0; i < 8; ++i) tmp[i] = base[idx[i]];
    return Load(tmp);
  }
  void Store(float* p) const {
    vst1q_f32(p, lo);
    vst1q_f32(p + 4, hi);
  }

  friend F32x8 operator+(F32x8 a, F32x8 b) {
    return {vaddq_f32(a.lo, b.lo), vaddq_f32(a.hi, b.hi)};
  }
  friend F32x8 operator-(F32x8 a, F32x8 b) {
    return {vsubq_f32(a.lo, b.lo), vsubq_f32(a.hi, b.hi)};
  }
  friend F32x8 operator*(F32x8 a, F32x8 b) {
    return {vmulq_f32(a.lo, b.lo), vmulq_f32(a.hi, b.hi)};
  }
  friend F32x8 operator/(F32x8 a, F32x8 b) {
    return {vdivq_f32(a.lo, b.lo), vdivq_f32(a.hi, b.hi)};
  }
  static F32x8 Max(F32x8 a, F32x8 b) {
    // vmaxq returns the non-NaN operand on unordered input; the relu kernel
    // only relies on Max(x, 0) == (x > 0 ? x : 0), which both satisfy for
    // the propagating-NaN convention used by the scalar path via Select.
    return Select(Gt(a, b), a, b);
  }
  F32x8 Neg() const {
    return {vnegq_f32(lo), vnegq_f32(hi)};
  }

 private:
  static uint8_t Pack(uint32x4_t mlo, uint32x4_t mhi) {
    const uint32x4_t bl = {1, 2, 4, 8};
    const uint32x4_t bh = {16, 32, 64, 128};
    return static_cast<uint8_t>(vaddvq_u32(vandq_u32(mlo, bl)) |
                                vaddvq_u32(vandq_u32(mhi, bh)));
  }

 public:
  static Mask8 Eq(F32x8 a, F32x8 b) {
    return {Pack(vceqq_f32(a.lo, b.lo), vceqq_f32(a.hi, b.hi))};
  }
  static Mask8 Ne(F32x8 a, F32x8 b) { return ~Eq(a, b); }
  static Mask8 Lt(F32x8 a, F32x8 b) {
    return {Pack(vcltq_f32(a.lo, b.lo), vcltq_f32(a.hi, b.hi))};
  }
  static Mask8 Le(F32x8 a, F32x8 b) {
    return {Pack(vcleq_f32(a.lo, b.lo), vcleq_f32(a.hi, b.hi))};
  }
  static Mask8 Gt(F32x8 a, F32x8 b) {
    return {Pack(vcgtq_f32(a.lo, b.lo), vcgtq_f32(a.hi, b.hi))};
  }
  static Mask8 Ge(F32x8 a, F32x8 b) {
    return {Pack(vcgeq_f32(a.lo, b.lo), vcgeq_f32(a.hi, b.hi))};
  }

  static F32x8 Select(Mask8 m, F32x8 a, F32x8 b) {
    float av[8], bv[8], out[8];
    a.Store(av);
    b.Store(bv);
    for (int i = 0; i < 8; ++i) out[i] = ((m.bits >> i) & 1u) ? av[i] : bv[i];
    return Load(out);
  }
};

// NEON int64 lacks the full compare set on all cores; keep the lanes in a
// plain array (the compiler still keeps them in registers) so the API is
// uniform across backends.
struct I64x8 {
  int64_t lane[8];

  static I64x8 Load(const int64_t* p) {
    I64x8 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  static I64x8 Broadcast(int64_t x) {
    I64x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = x;
    return r;
  }
  static I64x8 Zero() { return Broadcast(0); }
  void Store(int64_t* p) const { std::memcpy(p, lane, sizeof(lane)); }

  // Lanes wrap like the AVX2 lane ops; the unsigned detour avoids signed
  // overflow.
  friend I64x8 operator+(I64x8 a, I64x8 b) {
    I64x8 r;
    for (int i = 0; i < 8; ++i) {
      r.lane[i] = static_cast<int64_t>(static_cast<uint64_t>(a.lane[i]) +
                                       static_cast<uint64_t>(b.lane[i]));
    }
    return r;
  }
  friend I64x8 operator-(I64x8 a, I64x8 b) {
    I64x8 r;
    for (int i = 0; i < 8; ++i) {
      r.lane[i] = static_cast<int64_t>(static_cast<uint64_t>(a.lane[i]) -
                                       static_cast<uint64_t>(b.lane[i]));
    }
    return r;
  }
  I64x8 Neg() const { return Zero() - *this; }

  static Mask8 Eq(I64x8 a, I64x8 b) {
    uint8_t m = 0;
    for (int i = 0; i < 8; ++i) m |= (a.lane[i] == b.lane[i]) << i;
    return {m};
  }
  static Mask8 Gt(I64x8 a, I64x8 b) {
    uint8_t m = 0;
    for (int i = 0; i < 8; ++i) m |= (a.lane[i] > b.lane[i]) << i;
    return {m};
  }
  static Mask8 Ne(I64x8 a, I64x8 b) { return ~Eq(a, b); }
  static Mask8 Lt(I64x8 a, I64x8 b) { return Gt(b, a); }
  static Mask8 Le(I64x8 a, I64x8 b) { return ~Gt(a, b); }
  static Mask8 Ge(I64x8 a, I64x8 b) { return ~Gt(b, a); }

  static I64x8 Select(Mask8 m, I64x8 a, I64x8 b) {
    I64x8 r;
    for (int i = 0; i < 8; ++i) {
      r.lane[i] = ((m.bits >> i) & 1u) ? a.lane[i] : b.lane[i];
    }
    return r;
  }
};

#else  // scalar fallback

struct F32x8 {
  float lane[8];

  static F32x8 Load(const float* p) {
    F32x8 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  static F32x8 Broadcast(float x) {
    F32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = x;
    return r;
  }
  static F32x8 Zero() { return Broadcast(0.0f); }
  static F32x8 Gather(const float* base, const int32_t* idx) {
    F32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = base[idx[i]];
    return r;
  }
  void Store(float* p) const { std::memcpy(p, lane, sizeof(lane)); }

  friend F32x8 operator+(F32x8 a, F32x8 b) {
    F32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend F32x8 operator-(F32x8 a, F32x8 b) {
    F32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  friend F32x8 operator*(F32x8 a, F32x8 b) {
    F32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  friend F32x8 operator/(F32x8 a, F32x8 b) {
    F32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] / b.lane[i];
    return r;
  }
  static F32x8 Max(F32x8 a, F32x8 b) {
    F32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    return r;
  }
  F32x8 Neg() const {
    F32x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = -lane[i];
    return r;
  }

  static Mask8 Eq(F32x8 a, F32x8 b) {
    uint8_t m = 0;
    for (int i = 0; i < 8; ++i) m |= (a.lane[i] == b.lane[i]) << i;
    return {m};
  }
  static Mask8 Ne(F32x8 a, F32x8 b) {
    uint8_t m = 0;
    for (int i = 0; i < 8; ++i) m |= (a.lane[i] != b.lane[i]) << i;
    return {m};
  }
  static Mask8 Lt(F32x8 a, F32x8 b) {
    uint8_t m = 0;
    for (int i = 0; i < 8; ++i) m |= (a.lane[i] < b.lane[i]) << i;
    return {m};
  }
  static Mask8 Le(F32x8 a, F32x8 b) {
    uint8_t m = 0;
    for (int i = 0; i < 8; ++i) m |= (a.lane[i] <= b.lane[i]) << i;
    return {m};
  }
  static Mask8 Gt(F32x8 a, F32x8 b) {
    uint8_t m = 0;
    for (int i = 0; i < 8; ++i) m |= (a.lane[i] > b.lane[i]) << i;
    return {m};
  }
  static Mask8 Ge(F32x8 a, F32x8 b) {
    uint8_t m = 0;
    for (int i = 0; i < 8; ++i) m |= (a.lane[i] >= b.lane[i]) << i;
    return {m};
  }

  static F32x8 Select(Mask8 m, F32x8 a, F32x8 b) {
    F32x8 r;
    for (int i = 0; i < 8; ++i) {
      r.lane[i] = ((m.bits >> i) & 1u) ? a.lane[i] : b.lane[i];
    }
    return r;
  }
};

struct I64x8 {
  int64_t lane[8];

  static I64x8 Load(const int64_t* p) {
    I64x8 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  static I64x8 Broadcast(int64_t x) {
    I64x8 r;
    for (int i = 0; i < 8; ++i) r.lane[i] = x;
    return r;
  }
  static I64x8 Zero() { return Broadcast(0); }
  void Store(int64_t* p) const { std::memcpy(p, lane, sizeof(lane)); }

  // Lanes wrap like the AVX2 lane ops; the unsigned detour avoids signed
  // overflow.
  friend I64x8 operator+(I64x8 a, I64x8 b) {
    I64x8 r;
    for (int i = 0; i < 8; ++i) {
      r.lane[i] = static_cast<int64_t>(static_cast<uint64_t>(a.lane[i]) +
                                       static_cast<uint64_t>(b.lane[i]));
    }
    return r;
  }
  friend I64x8 operator-(I64x8 a, I64x8 b) {
    I64x8 r;
    for (int i = 0; i < 8; ++i) {
      r.lane[i] = static_cast<int64_t>(static_cast<uint64_t>(a.lane[i]) -
                                       static_cast<uint64_t>(b.lane[i]));
    }
    return r;
  }
  I64x8 Neg() const { return Zero() - *this; }

  static Mask8 Eq(I64x8 a, I64x8 b) {
    uint8_t m = 0;
    for (int i = 0; i < 8; ++i) m |= (a.lane[i] == b.lane[i]) << i;
    return {m};
  }
  static Mask8 Gt(I64x8 a, I64x8 b) {
    uint8_t m = 0;
    for (int i = 0; i < 8; ++i) m |= (a.lane[i] > b.lane[i]) << i;
    return {m};
  }
  static Mask8 Ne(I64x8 a, I64x8 b) { return ~Eq(a, b); }
  static Mask8 Lt(I64x8 a, I64x8 b) { return Gt(b, a); }
  static Mask8 Le(I64x8 a, I64x8 b) { return ~Gt(a, b); }
  static Mask8 Ge(I64x8 a, I64x8 b) { return ~Gt(b, a); }

  static I64x8 Select(Mask8 m, I64x8 a, I64x8 b) {
    I64x8 r;
    for (int i = 0; i < 8; ++i) {
      r.lane[i] = ((m.bits >> i) & 1u) ? a.lane[i] : b.lane[i];
    }
    return r;
  }
};

#endif  // backend selection

}  // namespace indbml::simd

#endif  // INDBML_COMMON_SIMD_H_
