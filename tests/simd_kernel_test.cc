// Bit-identity tests for the SIMD kernel layer (common/simd.h): every
// vectorized kernel must produce byte-for-byte the same output as its scalar
// fallback, across all three column types, with and without selection
// vectors, at sizes that exercise empty/partial/full lanes and long runs
// (n in {1, 7, 8, 9, 1023}). In a scalar build (-DINDBML_SIMD=OFF) both
// sides run the scalar path and the tests degenerate to self-comparison,
// which keeps the suite green on every target.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "exec/expression.h"
#include "exec/gather.h"
#include "exec/vector.h"
#include "nn/blas.h"
#include "test_util.h"

namespace indbml {
namespace {

using exec::BinaryOp;
using exec::DataChunk;
using exec::DataType;
using exec::SelectionVector;
using exec::Vector;

const int64_t kSizes[] = {1, 7, 8, 9, 1023};

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

/// Deterministic float fill seasoned with the special values the SIMD/scalar
/// contract is most likely to diverge on.
std::vector<float> MakeFloats(int64_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = rng.NextFloat(-8, 8);
  if (n >= 5) {
    v[0] = 0.0f;
    v[1] = -0.0f;
    v[2] = kNan;
    v[3] = kInf;
    v[4] = -kInf;
  }
  return v;
}

std::vector<int64_t> MakeInts(int64_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = static_cast<int64_t>(rng.NextUint64(2000)) - 1000;
  }
  if (n >= 3) {
    v[0] = std::numeric_limits<int64_t>::min();
    v[1] = std::numeric_limits<int64_t>::max();
    v[2] = 0;
  }
  return v;
}

std::vector<uint8_t> MakeBools(int64_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<uint8_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = rng.NextUint64(2) ? 1 : 0;
  }
  return v;
}

/// Runs `fn` (which writes its result into a caller-owned buffer it captures)
/// once with SIMD enabled and once disabled, returning both buffers for a
/// bitwise comparison by the caller.
template <typename Fn>
void RunBothModes(Fn fn, std::vector<float>* simd_out,
                  std::vector<float>* scalar_out) {
  {
    simd::ScopedEnable on(true);
    fn(simd_out);
  }
  {
    simd::ScopedEnable off(false);
    fn(scalar_out);
  }
}

/// Bit equality with one carve-out: when both sides are NaN they count as
/// equal regardless of payload/sign. IEEE 754 does not pin which NaN a
/// multiply/add propagates or generates, and compilers may commute
/// commutative operands, so NaN *payload* is outside the bit-identity
/// contract — NaN-ness itself must still match positionally.
void ExpectBitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
        << "divergence at index " << i << ": " << a[i] << " vs " << b[i];
  }
}

// ---------------------------------------------------------------------------
// BLAS kernels (nn/blas.cc)

TEST(SimdBlasTest, SgemmBitIdentity) {
  struct Shape {
    int64_t m, n, k;
  };
  // Shapes straddling the register-block (4x16), 8-lane and block (64)
  // boundaries, plus degenerate single-element cases.
  const Shape shapes[] = {{1, 1, 1},  {3, 5, 7},    {4, 16, 8},
                          {5, 17, 9}, {8, 33, 16},  {13, 70, 21},
                          {70, 3, 70}, {65, 129, 65}};
  const float alphas[] = {1.0f, 0.5f, 0.0f};
  const float betas[] = {0.0f, 1.0f, 1.25f};
  for (const Shape& s : shapes) {
    for (float alpha : alphas) {
      for (float beta : betas) {
        auto a = MakeFloats(s.m * s.k, 11);
        auto b = MakeFloats(s.k * s.n, 22);
        auto c0 = MakeFloats(s.m * s.n, 33);
        std::vector<float> c_simd, c_scalar;
        RunBothModes(
            [&](std::vector<float>* out) {
              *out = c0;
              blas::SgemmTight(false, false, s.m, s.n, s.k, alpha, a.data(),
                               b.data(), beta, out->data());
            },
            &c_simd, &c_scalar);
        SCOPED_TRACE("m=" + std::to_string(s.m) + " n=" + std::to_string(s.n) +
                     " k=" + std::to_string(s.k) + " alpha=" +
                     std::to_string(alpha) + " beta=" + std::to_string(beta));
        ExpectBitEqual(c_simd, c_scalar);
      }
    }
  }
}

TEST(SimdBlasTest, SgemmTransposedPathsBitIdentity) {
  // The transposed paths are scalar in both modes; assert it stays that way.
  const int64_t m = 9, n = 17, k = 13;
  auto a = MakeFloats(m * k, 5);
  auto b = MakeFloats(k * n, 6);
  auto c0 = MakeFloats(m * n, 7);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      if (!ta && !tb) continue;
      std::vector<float> c_simd, c_scalar;
      RunBothModes(
          [&](std::vector<float>* out) {
            *out = c0;
            blas::SgemmTight(ta, tb, m, n, k, 0.75f, a.data(), b.data(), 0.5f,
                             out->data());
          },
          &c_simd, &c_scalar);
      ExpectBitEqual(c_simd, c_scalar);
    }
  }
}

TEST(SimdBlasTest, ElementwiseKernelsBitIdentity) {
  for (int64_t n : kSizes) {
    auto x = MakeFloats(n, 42);
    auto y = MakeFloats(n, 43);
    std::vector<float> s1, s2;

    RunBothModes(
        [&](std::vector<float>* out) {
          out->assign(static_cast<size_t>(n), 0.0f);
          blas::VsAdd(n, x.data(), y.data(), out->data());
        },
        &s1, &s2);
    ExpectBitEqual(s1, s2);

    RunBothModes(
        [&](std::vector<float>* out) {
          out->assign(static_cast<size_t>(n), 0.0f);
          blas::VsMul(n, x.data(), y.data(), out->data());
        },
        &s1, &s2);
    ExpectBitEqual(s1, s2);

    RunBothModes(
        [&](std::vector<float>* out) {
          *out = y;
          blas::Saxpy(n, 1.5f, x.data(), out->data());
        },
        &s1, &s2);
    ExpectBitEqual(s1, s2);

    // VsRelu input includes NaN, +-0 and +-inf from MakeFloats: the SIMD
    // max-with-zero must clamp them exactly like the scalar ternary.
    RunBothModes(
        [&](std::vector<float>* out) {
          *out = x;
          blas::VsRelu(n, out->data());
        },
        &s1, &s2);
    ExpectBitEqual(s1, s2);

    // Sigmoid/tanh stay scalar by design (libm calls); self-consistency.
    RunBothModes(
        [&](std::vector<float>* out) {
          *out = x;
          blas::VsSigmoid(n, out->data());
        },
        &s1, &s2);
    ExpectBitEqual(s1, s2);

    RunBothModes(
        [&](std::vector<float>* out) {
          *out = x;
          blas::VsTanh(n, out->data());
        },
        &s1, &s2);
    ExpectBitEqual(s1, s2);
  }
}

TEST(SimdBlasTest, SgerBitIdentity) {
  const int64_t m = 9, n = 17;
  auto x = MakeFloats(m, 3);
  auto y = MakeFloats(n, 4);
  auto a0 = MakeFloats(m * n, 5);
  std::vector<float> s1, s2;
  RunBothModes(
      [&](std::vector<float>* out) {
        *out = a0;
        blas::Sger(m, n, 0.25f, x.data(), y.data(), out->data(), n);
      },
      &s1, &s2);
  ExpectBitEqual(s1, s2);
}

// ---------------------------------------------------------------------------
// Expression kernels (exec/expression.cc)

DataChunk MakeChunk(int64_t n, uint64_t seed) {
  DataChunk chunk;
  chunk.Reset({DataType::kFloat, DataType::kFloat, DataType::kInt64,
               DataType::kInt64, DataType::kBool});
  auto f1 = MakeFloats(n, seed);
  auto f2 = MakeFloats(n, seed + 1);
  auto i1 = MakeInts(n, seed + 2);
  auto i2 = MakeInts(n, seed + 3);
  auto b1 = MakeBools(n, seed + 4);
  for (int64_t c = 0; c < 5; ++c) chunk.column(c).Resize(n);
  std::memcpy(chunk.column(0).floats(), f1.data(), f1.size() * sizeof(float));
  std::memcpy(chunk.column(1).floats(), f2.data(), f2.size() * sizeof(float));
  std::memcpy(chunk.column(2).ints(), i1.data(), i1.size() * sizeof(int64_t));
  std::memcpy(chunk.column(3).ints(), i2.data(), i2.size() * sizeof(int64_t));
  std::memcpy(chunk.column(4).bools(), b1.data(), b1.size());
  chunk.size = n;
  return chunk;
}

void ExpectVectorBitEqual(const Vector& a, const Vector& b, int64_t n) {
  ASSERT_EQ(a.type(), b.type());
  ASSERT_EQ(a.size(), n);
  ASSERT_EQ(b.size(), n);
  for (int64_t i = 0; i < n; ++i) {
    exec::Value va = a.GetValue(i);
    exec::Value vb = b.GetValue(i);
    switch (a.type()) {
      case DataType::kBool:
        ASSERT_EQ(va.b, vb.b) << "row " << i;
        break;
      case DataType::kInt64:
        ASSERT_EQ(va.i, vb.i) << "row " << i;
        break;
      case DataType::kFloat:
        if (std::isnan(va.f) && std::isnan(vb.f)) break;  // see ExpectBitEqual
        ASSERT_EQ(std::memcmp(&va.f, &vb.f, sizeof(float)), 0)
            << "row " << i << ": " << va.f << " vs " << vb.f;
        break;
    }
  }
}

void ExpectExprBitIdentity(const exec::Expr& e, const DataChunk& chunk) {
  Vector out_simd(e.type);
  Vector out_scalar(e.type);
  {
    simd::ScopedEnable on(true);
    ASSERT_OK(exec::EvaluateExpr(e, chunk, &out_simd));
  }
  {
    simd::ScopedEnable off(false);
    ASSERT_OK(exec::EvaluateExpr(e, chunk, &out_scalar));
  }
  out_simd.Flatten();
  out_scalar.Flatten();
  ExpectVectorBitEqual(out_simd, out_scalar, chunk.size);
}

exec::ExprPtr Col(int64_t idx, DataType t) {
  return exec::MakeColumnRef(idx, t);
}

TEST(SimdExpressionTest, ComparisonsBitIdentity) {
  const BinaryOp ops[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                          BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  for (int64_t n : kSizes) {
    DataChunk chunk = MakeChunk(n, 100);
    for (BinaryOp op : ops) {
      SCOPED_TRACE("n=" + std::to_string(n) + " op=" +
                   std::string(exec::BinaryOpName(op)));
      // float x float (columns carry NaN/inf), int64 x int64, and a
      // column-vs-constant comparison for each.
      ExpectExprBitIdentity(*exec::MakeBinary(op, Col(0, DataType::kFloat),
                                              Col(1, DataType::kFloat)),
                            chunk);
      ExpectExprBitIdentity(*exec::MakeBinary(op, Col(2, DataType::kInt64),
                                              Col(3, DataType::kInt64)),
                            chunk);
      ExpectExprBitIdentity(
          *exec::MakeBinary(op, Col(0, DataType::kFloat),
                            exec::MakeConstant(exec::Value::Float(0.5f))),
          chunk);
      ExpectExprBitIdentity(
          *exec::MakeBinary(op, Col(2, DataType::kInt64),
                            exec::MakeConstant(exec::Value::Int64(17))),
          chunk);
      // Mixed int64 x float promotes through the AsFloats cast path.
      ExpectExprBitIdentity(*exec::MakeBinary(op, Col(2, DataType::kInt64),
                                              Col(1, DataType::kFloat)),
                            chunk);
    }
  }
}

TEST(SimdExpressionTest, ArithmeticBitIdentity) {
  const BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                          BinaryOp::kDiv};
  for (int64_t n : kSizes) {
    DataChunk chunk = MakeChunk(n, 200);
    for (BinaryOp op : ops) {
      SCOPED_TRACE("n=" + std::to_string(n) + " op=" +
                   std::string(exec::BinaryOpName(op)));
      ExpectExprBitIdentity(*exec::MakeBinary(op, Col(0, DataType::kFloat),
                                              Col(1, DataType::kFloat)),
                            chunk);
      if (op == BinaryOp::kAdd || op == BinaryOp::kSub ||
          op == BinaryOp::kMul) {
        ExpectExprBitIdentity(*exec::MakeBinary(op, Col(2, DataType::kInt64),
                                                Col(3, DataType::kInt64)),
                              chunk);
      }
    }
  }
}

// BIGINT +, - and * wrap in two's complement in the SIMD body and in the
// scalar tail alike (n = 7: tail only, 8: body only, 9 and 1023: both).
TEST(SimdExpressionTest, Int64ArithmeticWraps) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  struct Case {
    BinaryOp op;
    int64_t lhs;
    int64_t rhs;
    int64_t want;
  };
  const Case cases[] = {{BinaryOp::kAdd, kMax, 1, kMin},
                        {BinaryOp::kSub, kMin, 1, kMax},
                        {BinaryOp::kMul, kMax, 2, -2},
                        {BinaryOp::kDiv, kMin, -1, kMin},
                        {BinaryOp::kMod, kMin, -1, 0}};
  for (int64_t n : {int64_t{7}, int64_t{8}, int64_t{9}, int64_t{1023}}) {
    for (const Case& c : cases) {
      DataChunk chunk;
      chunk.Reset({DataType::kInt64, DataType::kInt64});
      for (int64_t col = 0; col < 2; ++col) chunk.column(col).Resize(n);
      for (int64_t i = 0; i < n; ++i) {
        chunk.column(0).ints()[i] = c.lhs;
        chunk.column(1).ints()[i] = c.rhs;
      }
      chunk.size = n;
      auto e = exec::MakeBinary(c.op, exec::MakeColumnRef(0, DataType::kInt64),
                                exec::MakeColumnRef(1, DataType::kInt64));
      for (bool simd_on : {true, false}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " op=" +
                     std::string(exec::BinaryOpName(c.op)) +
                     (simd_on ? " simd" : " scalar"));
        simd::ScopedEnable mode(simd_on);
        Vector out(DataType::kInt64);
        ASSERT_OK(exec::EvaluateExpr(*e, chunk, &out));
        out.Flatten();
        ASSERT_EQ(out.size(), n);
        for (int64_t i = 0; i < n; ++i) ASSERT_EQ(out.ints()[i], c.want) << "row " << i;
      }
    }
  }
}

TEST(SimdExpressionTest, CaseAndCastBitIdentity) {
  for (int64_t n : kSizes) {
    DataChunk chunk = MakeChunk(n, 300);
    // CASE WHEN f0 > 0 THEN f0 * 2 WHEN i0 > 10 THEN f1 ELSE -1.0 END
    std::vector<exec::ExprPtr> parts;
    parts.push_back(exec::MakeBinary(BinaryOp::kGt, Col(0, DataType::kFloat),
                                     exec::MakeConstant(exec::Value::Float(0))));
    parts.push_back(exec::MakeBinary(BinaryOp::kMul, Col(0, DataType::kFloat),
                                     exec::MakeConstant(exec::Value::Float(2))));
    parts.push_back(exec::MakeBinary(BinaryOp::kGt, Col(2, DataType::kInt64),
                                     exec::MakeConstant(exec::Value::Int64(10))));
    parts.push_back(Col(1, DataType::kFloat));
    parts.push_back(exec::MakeConstant(exec::Value::Float(-1.0f)));
    ExpectExprBitIdentity(*exec::MakeCase(std::move(parts)), chunk);

    // Casts exercise the typed-pointer AsFloats path.
    ExpectExprBitIdentity(*exec::MakeCast(Col(2, DataType::kInt64),
                                          DataType::kFloat),
                          chunk);
    ExpectExprBitIdentity(*exec::MakeCast(Col(4, DataType::kBool),
                                          DataType::kFloat),
                          chunk);
  }
}

// ---------------------------------------------------------------------------
// Selection-mask kernels (exec/expression.h)

TEST(SimdMaskTest, AndMaskCompareConstBitIdentity) {
  const BinaryOp ops[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                          BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  for (int64_t n : kSizes) {
    auto f = MakeFloats(n, 7);
    auto x = MakeInts(n, 8);
    auto m0 = MakeBools(n, 9);
    for (BinaryOp op : ops) {
      for (float c : {0.5f, 0.0f, kNan}) {
        std::vector<uint8_t> ms, mv;
        {
          simd::ScopedEnable on(true);
          mv = m0;
          exec::AndMaskCompareConstFloat(op, f.data(), c, n, mv.data());
        }
        {
          simd::ScopedEnable off(false);
          ms = m0;
          exec::AndMaskCompareConstFloat(op, f.data(), c, n, ms.data());
        }
        ASSERT_EQ(mv, ms) << "float op=" << exec::BinaryOpName(op)
                          << " c=" << c << " n=" << n;
      }
      for (int64_t c : {int64_t{0}, int64_t{17}, int64_t{-1000}}) {
        std::vector<uint8_t> ms, mv;
        {
          simd::ScopedEnable on(true);
          mv = m0;
          exec::AndMaskCompareConstInt64(op, x.data(), c, n, mv.data());
        }
        {
          simd::ScopedEnable off(false);
          ms = m0;
          exec::AndMaskCompareConstInt64(op, x.data(), c, n, ms.data());
        }
        ASSERT_EQ(mv, ms) << "int64 op=" << exec::BinaryOpName(op)
                          << " c=" << c << " n=" << n;
      }
    }
  }
}

TEST(SimdMaskTest, AppendMaskIndicesMatchesNaiveScan) {
  for (int64_t n : kSizes) {
    auto mask = MakeBools(n, 77);
    std::vector<int32_t> naive;
    for (int64_t i = 0; i < n; ++i) {
      if (mask[static_cast<size_t>(i)]) naive.push_back(static_cast<int32_t>(i) + 5);
    }
    std::vector<int32_t> got_simd, got_scalar;
    {
      simd::ScopedEnable on(true);
      exec::AppendMaskIndices(mask.data(), n, 5, &got_simd);
    }
    {
      simd::ScopedEnable off(false);
      exec::AppendMaskIndices(mask.data(), n, 5, &got_scalar);
    }
    EXPECT_EQ(got_simd, naive) << "n=" << n;
    EXPECT_EQ(got_scalar, naive) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Gather kernels (exec/gather.cc)

std::shared_ptr<const SelectionVector> MakeSelection(int64_t src_n,
                                                     int64_t out_n,
                                                     uint64_t seed) {
  Random rng(seed);
  std::vector<int32_t> idx(static_cast<size_t>(out_n));
  for (int64_t i = 0; i < out_n; ++i) {
    idx[static_cast<size_t>(i)] =
        static_cast<int32_t>(rng.NextUint64(static_cast<uint64_t>(src_n)));
  }
  return std::make_shared<const SelectionVector>(std::move(idx));
}

Vector MakeColumn(DataType type, const void* data, int64_t n, size_t elem) {
  Vector v(type);
  v.Resize(n);
  void* dst = type == DataType::kFloat
                  ? static_cast<void*>(v.floats())
                  : type == DataType::kInt64 ? static_cast<void*>(v.ints())
                                             : static_cast<void*>(v.bools());
  std::memcpy(dst, data, static_cast<size_t>(n) * elem);
  return v;
}

TEST(SimdGatherTest, GatherToFloatBitIdentity) {
  for (int64_t n : kSizes) {
    const int64_t src_n = n + 16;
    auto f = MakeFloats(src_n, 21);
    auto x = MakeInts(src_n, 22);
    auto b = MakeBools(src_n, 23);
    auto sel = MakeSelection(src_n, n, 24);

    std::vector<Vector> inputs;
    inputs.push_back(MakeColumn(DataType::kFloat, f.data(), src_n, sizeof(float)));
    inputs.push_back(MakeColumn(DataType::kInt64, x.data(), src_n, sizeof(int64_t)));
    inputs.push_back(MakeColumn(DataType::kBool, b.data(), src_n, sizeof(uint8_t)));

    for (Vector& base : inputs) {
      for (bool selected : {false, true}) {
        Vector input = selected ? base.WithSelection(sel)
                                : Vector::View(base.type(), base.buffer(), 0, n);
        std::vector<float> out_simd, out_scalar;
        RunBothModes(
            [&](std::vector<float>* out) {
              out->assign(static_cast<size_t>(n), -99.0f);
              exec::GatherToFloat(input, out->data());
            },
            &out_simd, &out_scalar);
        SCOPED_TRACE("type=" + std::to_string(static_cast<int>(base.type())) +
                     " selected=" + std::to_string(selected) + " n=" +
                     std::to_string(n));
        ExpectBitEqual(out_simd, out_scalar);

        const int64_t stride = 3;
        RunBothModes(
            [&](std::vector<float>* out) {
              out->assign(static_cast<size_t>(n * stride), -99.0f);
              exec::GatherToFloatStrided(input, out->data(), stride);
            },
            &out_simd, &out_scalar);
        ExpectBitEqual(out_simd, out_scalar);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The simd.h primitives themselves

TEST(SimdLayerTest, MaskRoundTrip) {
  for (uint32_t bits = 0; bits < 256; ++bits) {
    simd::Mask8 m = simd::Mask8::FromBits(static_cast<uint8_t>(bits));
    uint8_t bytes[simd::kWidth];
    m.StoreBytes(bytes);
    simd::Mask8 back = simd::Mask8::FromBytes(bytes);
    EXPECT_EQ(back.bits, m.bits);
    int count = 0;
    for (uint8_t byte : bytes) count += byte != 0;
    EXPECT_EQ(count, m.CountTrue());
    EXPECT_EQ(m.AnyTrue(), bits != 0);
    EXPECT_EQ(m.AllTrue(), bits == 255);
  }
}

TEST(SimdLayerTest, RuntimeToggle) {
  const bool initial = simd::Enabled();
  {
    simd::ScopedEnable off(false);
    EXPECT_FALSE(simd::UseSimd());
    {
      simd::ScopedEnable on(true);
      EXPECT_EQ(simd::UseSimd(), simd::kCompiled);
    }
    EXPECT_FALSE(simd::UseSimd());
  }
  EXPECT_EQ(simd::Enabled(), initial);
}

}  // namespace
}  // namespace indbml
