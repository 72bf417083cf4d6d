#include "exec/expression.h"

#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/simd.h"
#include "common/string_util.h"
#include "nn/blas.h"

namespace indbml::exec {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

const char* ScalarFnName(ScalarFn fn) {
  switch (fn) {
    case ScalarFn::kSigmoid:
      return "sigmoid";
    case ScalarFn::kTanh:
      return "tanh";
    case ScalarFn::kRelu:
      return "relu";
    case ScalarFn::kExp:
      return "exp";
    case ScalarFn::kAbs:
      return "abs";
    case ScalarFn::kSin:
      return "sin";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      return name.empty() ? StrFormat("#%lld", static_cast<long long>(column_id))
                          : name;
    case ExprKind::kConstant:
      return constant.ToString();
    case ExprKind::kBinary: {
      // Appends instead of an operator+ chain: GCC 12's -Wrestrict reports a
      // bogus overlapping-memcpy warning on the chained form at -O2.
      std::string out = "(";
      out += children[0]->ToString();
      out += " ";
      out += BinaryOpName(bin_op);
      out += " ";
      out += children[1]->ToString();
      out += ")";
      return out;
    }
    case ExprKind::kUnary:
      return std::string(un_op == UnaryOp::kNot ? "NOT " : "-") +
             children[0]->ToString();
    case ExprKind::kFunction: {
      std::string out = ScalarFnName(fn);
      out += "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t i = 0;
      for (; i + 1 < children.size(); i += 2) {
        out += " WHEN " + children[i]->ToString() + " THEN " +
               children[i + 1]->ToString();
      }
      if (i < children.size()) out += " ELSE " + children[i]->ToString();
      return out + " END";
    }
    case ExprKind::kCast:
      return "CAST(" + children[0]->ToString() + " AS " + DataTypeName(type) + ")";
  }
  return "?";
}

ExprPtr MakeColumnRef(int64_t column_id, DataType type, std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->type = type;
  e->column_id = column_id;
  e->name = std::move(name);
  return e;
}

ExprPtr MakeConstant(const Value& v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kConstant;
  e->type = v.type;
  e->constant = v;
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bin_op = op;
  e->type = BinaryResultType(op, lhs->type, rhs->type);
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr child) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->un_op = op;
  e->type = op == UnaryOp::kNot ? DataType::kBool : child->type;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr MakeFunction(ScalarFn fn, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->fn = fn;
  e->type = DataType::kFloat;
  e->children = std::move(args);
  return e;
}

ExprPtr MakeCase(std::vector<ExprPtr> parts) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  // Result type: type of the first THEN branch (binder inserts casts).
  e->type = parts.size() >= 2 ? parts[1]->type
                              : (parts.empty() ? DataType::kInt64 : parts[0]->type);
  e->children = std::move(parts);
  return e;
}

ExprPtr MakeCast(ExprPtr child, DataType target) {
  if (child->type == target) return child;
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCast;
  e->type = target;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr CloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->type = e.type;
  out->column_id = e.column_id;
  out->name = e.name;
  out->constant = e.constant;
  out->bin_op = e.bin_op;
  out->un_op = e.un_op;
  out->fn = e.fn;
  out->children.reserve(e.children.size());
  for (const auto& c : e.children) out->children.push_back(CloneExpr(*c));
  return out;
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

DataType BinaryResultType(BinaryOp op, DataType lhs, DataType rhs) {
  if (IsComparison(op) || op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    return DataType::kBool;
  }
  if (lhs == DataType::kFloat || rhs == DataType::kFloat) return DataType::kFloat;
  return DataType::kInt64;
}

namespace {

using simd::F32x8;
using simd::I64x8;
using simd::Mask8;

/// BIGINT arithmetic wraps in two's complement, as BIGINT SUM does: the
/// scalar kernels compute on the unsigned bits, which cannot overflow.
uint64_t ToBits(int64_t x) { return static_cast<uint64_t>(x); }
int64_t WrapInt64(uint64_t bits) { return static_cast<int64_t>(bits); }

/// Promotes a vector to float in place of `tmp` if needed; returns a pointer
/// to float data covering all rows. Writes go through a raw typed pointer
/// (the gather-kernel idiom), not per-row indexed vector accesses.
const float* AsFloats(const Vector& v, std::vector<float>* tmp) {
  if (v.type() == DataType::kFloat) return v.floats();
  tmp->resize(static_cast<size_t>(v.size()));
  float* o = tmp->data();
  const int64_t n = v.size();
  if (v.type() == DataType::kInt64) {
    const int64_t* in = v.ints();
    for (int64_t i = 0; i < n; ++i) o[i] = static_cast<float>(in[i]);
  } else {
    const uint8_t* in = v.bools();
    for (int64_t i = 0; i < n; ++i) o[i] = in[i];
  }
  return o;
}

/// Columnwise comparison writing 0/1 bytes: o[i] = a[i] op b[i]. One kernel
/// per (op, type) pair; the vector loop emits 8-lane bitmasks that are
/// expanded to bytes, the scalar tail finishes the odd lanes with the same
/// per-element semantics (including NaN: only Ne is true on unordered).
template <typename T, typename V>
void CompareColumns(BinaryOp op, const T* a, const T* b, int64_t n, uint8_t* o) {
  int64_t i = 0;
  if (simd::UseSimd()) {
    const int64_t vend = n - (n % simd::kWidth);
    switch (op) {
      case BinaryOp::kEq:
        for (; i < vend; i += simd::kWidth)
          V::Eq(V::Load(a + i), V::Load(b + i)).StoreBytes(o + i);
        break;
      case BinaryOp::kNe:
        for (; i < vend; i += simd::kWidth)
          V::Ne(V::Load(a + i), V::Load(b + i)).StoreBytes(o + i);
        break;
      case BinaryOp::kLt:
        for (; i < vend; i += simd::kWidth)
          V::Lt(V::Load(a + i), V::Load(b + i)).StoreBytes(o + i);
        break;
      case BinaryOp::kLe:
        for (; i < vend; i += simd::kWidth)
          V::Le(V::Load(a + i), V::Load(b + i)).StoreBytes(o + i);
        break;
      case BinaryOp::kGt:
        for (; i < vend; i += simd::kWidth)
          V::Gt(V::Load(a + i), V::Load(b + i)).StoreBytes(o + i);
        break;
      case BinaryOp::kGe:
        for (; i < vend; i += simd::kWidth)
          V::Ge(V::Load(a + i), V::Load(b + i)).StoreBytes(o + i);
        break;
      default:
        break;
    }
  }
  switch (op) {
    case BinaryOp::kEq:
      for (; i < n; ++i) o[i] = a[i] == b[i];
      break;
    case BinaryOp::kNe:
      for (; i < n; ++i) o[i] = a[i] != b[i];
      break;
    case BinaryOp::kLt:
      for (; i < n; ++i) o[i] = a[i] < b[i];
      break;
    case BinaryOp::kLe:
      for (; i < n; ++i) o[i] = a[i] <= b[i];
      break;
    case BinaryOp::kGt:
      for (; i < n; ++i) o[i] = a[i] > b[i];
      break;
    case BinaryOp::kGe:
      for (; i < n; ++i) o[i] = a[i] >= b[i];
      break;
    default:
      break;
  }
}

/// mask[i] &= (a[i] op c), same lane semantics as CompareColumns. This is
/// the fused scan's predicate kernel: it AND-accumulates straight into the
/// survivor mask instead of materializing a bool vector per predicate.
template <typename T, typename V>
void AndMaskCompareConstImpl(BinaryOp op, const T* a, T c, int64_t n,
                             uint8_t* mask) {
  int64_t i = 0;
  if (simd::UseSimd()) {
    const int64_t vend = n - (n % simd::kWidth);
    const V cv = V::Broadcast(c);
    switch (op) {
      case BinaryOp::kEq:
        for (; i < vend; i += simd::kWidth)
          (Mask8::FromBytes(mask + i) & V::Eq(V::Load(a + i), cv))
              .StoreBytes(mask + i);
        break;
      case BinaryOp::kNe:
        for (; i < vend; i += simd::kWidth)
          (Mask8::FromBytes(mask + i) & V::Ne(V::Load(a + i), cv))
              .StoreBytes(mask + i);
        break;
      case BinaryOp::kLt:
        for (; i < vend; i += simd::kWidth)
          (Mask8::FromBytes(mask + i) & V::Lt(V::Load(a + i), cv))
              .StoreBytes(mask + i);
        break;
      case BinaryOp::kLe:
        for (; i < vend; i += simd::kWidth)
          (Mask8::FromBytes(mask + i) & V::Le(V::Load(a + i), cv))
              .StoreBytes(mask + i);
        break;
      case BinaryOp::kGt:
        for (; i < vend; i += simd::kWidth)
          (Mask8::FromBytes(mask + i) & V::Gt(V::Load(a + i), cv))
              .StoreBytes(mask + i);
        break;
      case BinaryOp::kGe:
        for (; i < vend; i += simd::kWidth)
          (Mask8::FromBytes(mask + i) & V::Ge(V::Load(a + i), cv))
              .StoreBytes(mask + i);
        break;
      default:
        break;
    }
  }
  switch (op) {
    case BinaryOp::kEq:
      for (; i < n; ++i) mask[i] = mask[i] & (a[i] == c ? 1 : 0);
      break;
    case BinaryOp::kNe:
      for (; i < n; ++i) mask[i] = mask[i] & (a[i] != c ? 1 : 0);
      break;
    case BinaryOp::kLt:
      for (; i < n; ++i) mask[i] = mask[i] & (a[i] < c ? 1 : 0);
      break;
    case BinaryOp::kLe:
      for (; i < n; ++i) mask[i] = mask[i] & (a[i] <= c ? 1 : 0);
      break;
    case BinaryOp::kGt:
      for (; i < n; ++i) mask[i] = mask[i] & (a[i] > c ? 1 : 0);
      break;
    case BinaryOp::kGe:
      for (; i < n; ++i) mask[i] = mask[i] & (a[i] >= c ? 1 : 0);
      break;
    default:
      break;
  }
}

Status EvalBinary(const Expr& expr, const DataChunk& input, Vector* out) {
  Vector lhs(expr.children[0]->type);
  Vector rhs(expr.children[1]->type);
  INDBML_RETURN_NOT_OK(EvaluateExpr(*expr.children[0], input, &lhs));
  INDBML_RETURN_NOT_OK(EvaluateExpr(*expr.children[1], input, &rhs));
  // Column refs over a filtered chunk arrive as selected views; the typed
  // kernels below want contiguous data, so this is the flatten boundary.
  lhs.Flatten();
  rhs.Flatten();
  int64_t n = input.size;
  out->Resize(n);

  BinaryOp op = expr.bin_op;
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    // as_const: the const accessors read shared views in place; the
    // non-const overloads would copy-on-write a private buffer first.
    const uint8_t* a = std::as_const(lhs).bools();
    const uint8_t* b = std::as_const(rhs).bools();
    uint8_t* o = out->bools();
    if (op == BinaryOp::kAnd) {
      for (int64_t i = 0; i < n; ++i) o[i] = a[i] & b[i];
    } else {
      for (int64_t i = 0; i < n; ++i) o[i] = a[i] | b[i];
    }
    return Status::OK();
  }

  bool int_math = lhs.type() == DataType::kInt64 && rhs.type() == DataType::kInt64;
  if (IsComparison(op)) {
    uint8_t* o = out->bools();
    if (int_math) {
      CompareColumns<int64_t, I64x8>(op, std::as_const(lhs).ints(),
                                     std::as_const(rhs).ints(), n, o);
    } else {
      std::vector<float> ta, tb;
      const float* a = AsFloats(lhs, &ta);
      const float* b = AsFloats(rhs, &tb);
      CompareColumns<float, F32x8>(op, a, b, n, o);
    }
    return Status::OK();
  }

  // Arithmetic. Int64 add/sub and all float ops vectorize; int64 mul has no
  // 64-bit lane multiply in AVX2 and div/mod need the per-row zero check, so
  // those three stay scalar.
  if (expr.type == DataType::kInt64) {
    const int64_t* a = std::as_const(lhs).ints();
    const int64_t* b = std::as_const(rhs).ints();
    int64_t* o = out->ints();
    int64_t i = 0;
    switch (op) {
      case BinaryOp::kAdd:
        if (simd::UseSimd()) {
          for (; i + simd::kWidth <= n; i += simd::kWidth) {
            (I64x8::Load(a + i) + I64x8::Load(b + i)).Store(o + i);
          }
        }
        for (; i < n; ++i) o[i] = WrapInt64(ToBits(a[i]) + ToBits(b[i]));
        break;
      case BinaryOp::kSub:
        if (simd::UseSimd()) {
          for (; i + simd::kWidth <= n; i += simd::kWidth) {
            (I64x8::Load(a + i) - I64x8::Load(b + i)).Store(o + i);
          }
        }
        for (; i < n; ++i) o[i] = WrapInt64(ToBits(a[i]) - ToBits(b[i]));
        break;
      case BinaryOp::kMul:
        for (; i < n; ++i) o[i] = WrapInt64(ToBits(a[i]) * ToBits(b[i]));
        break;
      case BinaryOp::kDiv:
        for (; i < n; ++i) {
          if (b[i] == 0) return Status::ExecutionError("division by zero");
          // INT64_MIN / -1 wraps to INT64_MIN (the quotient's negation).
          o[i] = b[i] == -1 ? WrapInt64(0 - ToBits(a[i])) : a[i] / b[i];
        }
        break;
      case BinaryOp::kMod:
        for (; i < n; ++i) {
          if (b[i] == 0) return Status::ExecutionError("modulo by zero");
          o[i] = b[i] == -1 ? 0 : a[i] % b[i];
        }
        break;
      default:
        return Status::Internal("bad arithmetic op");
    }
  } else {
    std::vector<float> ta, tb;
    const float* a = AsFloats(lhs, &ta);
    const float* b = AsFloats(rhs, &tb);
    float* o = out->floats();
    int64_t i = 0;
    switch (op) {
      case BinaryOp::kAdd:
        if (simd::UseSimd()) {
          for (; i + simd::kWidth <= n; i += simd::kWidth) {
            (F32x8::Load(a + i) + F32x8::Load(b + i)).Store(o + i);
          }
        }
        for (; i < n; ++i) o[i] = a[i] + b[i];
        break;
      case BinaryOp::kSub:
        if (simd::UseSimd()) {
          for (; i + simd::kWidth <= n; i += simd::kWidth) {
            (F32x8::Load(a + i) - F32x8::Load(b + i)).Store(o + i);
          }
        }
        for (; i < n; ++i) o[i] = a[i] - b[i];
        break;
      case BinaryOp::kMul:
        if (simd::UseSimd()) {
          for (; i + simd::kWidth <= n; i += simd::kWidth) {
            (F32x8::Load(a + i) * F32x8::Load(b + i)).Store(o + i);
          }
        }
        for (; i < n; ++i) o[i] = a[i] * b[i];
        break;
      case BinaryOp::kDiv:
        if (simd::UseSimd()) {
          for (; i + simd::kWidth <= n; i += simd::kWidth) {
            (F32x8::Load(a + i) / F32x8::Load(b + i)).Store(o + i);
          }
        }
        for (; i < n; ++i) o[i] = a[i] / b[i];
        break;
      default:
        return Status::Internal("bad float arithmetic op");
    }
  }
  return Status::OK();
}

/// CASE branch merge: writes `src` rows into `out` wherever `cond` (nullptr
/// = ELSE, always true) holds and the row is still undecided. Typed when the
/// branch type matches the result type (the binder inserts casts, so it
/// always does in practice); coercing Value fallback otherwise. `src` may be
/// a selected view — the Get*At readers apply its selection.
void MergeCaseBranch(const Vector& src, const uint8_t* cond,
                     std::vector<uint8_t>* decided, int64_t n, Vector* out) {
  auto pending = [&](int64_t r) {
    return !(*decided)[static_cast<size_t>(r)] && (cond == nullptr || cond[r]);
  };
  // Vector path: flat same-typed branch (the common shape — branches are
  // constants or expression results). Builds the take-mask from the cond and
  // decided byte vectors, blends 8 rows at a time, and ORs the mask back
  // into `decided`. Selected views and type mismatches fall through to the
  // per-row readers below, which apply the same row-local rule.
  if (src.type() == out->type() && src.selection() == nullptr &&
      src.size() >= n && simd::UseSimd() && out->type() != DataType::kBool) {
    uint8_t* dec = decided->data();
    int64_t i = 0;
    const int64_t vend = n - (n % simd::kWidth);
    if (out->type() == DataType::kFloat) {
      const float* s = std::as_const(src).floats();
      float* o = out->floats();
      for (; i < vend; i += simd::kWidth) {
        Mask8 take = ~Mask8::FromBytes(dec + i);
        if (cond != nullptr) take = take & Mask8::FromBytes(cond + i);
        if (!take.AnyTrue()) continue;
        F32x8::Select(take, F32x8::Load(s + i), F32x8::Load(o + i)).Store(o + i);
        take.OrIntoBytes(dec + i);
      }
      for (; i < n; ++i) {
        if (!dec[i] && (cond == nullptr || cond[i])) {
          o[i] = s[i];
          dec[i] = 1;
        }
      }
    } else {
      const int64_t* s = std::as_const(src).ints();
      int64_t* o = out->ints();
      for (; i < vend; i += simd::kWidth) {
        Mask8 take = ~Mask8::FromBytes(dec + i);
        if (cond != nullptr) take = take & Mask8::FromBytes(cond + i);
        if (!take.AnyTrue()) continue;
        I64x8::Select(take, I64x8::Load(s + i), I64x8::Load(o + i)).Store(o + i);
        take.OrIntoBytes(dec + i);
      }
      for (; i < n; ++i) {
        if (!dec[i] && (cond == nullptr || cond[i])) {
          o[i] = s[i];
          dec[i] = 1;
        }
      }
    }
    return;
  }
  if (src.type() != out->type()) {
    for (int64_t r = 0; r < n; ++r) {
      if (!pending(r)) continue;
      out->SetValue(r, src.GetValue(r));
      (*decided)[static_cast<size_t>(r)] = 1;
    }
    return;
  }
  switch (out->type()) {
    case DataType::kBool: {
      uint8_t* o = out->bools();
      for (int64_t r = 0; r < n; ++r) {
        if (!pending(r)) continue;
        o[r] = src.GetBoolAt(r) ? 1 : 0;
        (*decided)[static_cast<size_t>(r)] = 1;
      }
      return;
    }
    case DataType::kInt64: {
      int64_t* o = out->ints();
      for (int64_t r = 0; r < n; ++r) {
        if (!pending(r)) continue;
        o[r] = src.GetInt64At(r);
        (*decided)[static_cast<size_t>(r)] = 1;
      }
      return;
    }
    case DataType::kFloat: {
      float* o = out->floats();
      for (int64_t r = 0; r < n; ++r) {
        if (!pending(r)) continue;
        o[r] = src.GetFloatAt(r);
        (*decided)[static_cast<size_t>(r)] = 1;
      }
      return;
    }
  }
}

}  // namespace

Status EvaluateExpr(const Expr& expr, const DataChunk& input, Vector* out) {
  const int64_t n = input.size;
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      if (expr.column_id < 0 || expr.column_id >= input.num_columns()) {
        return Status::Internal(
            StrFormat("column index %lld out of range (%lld columns)",
                      static_cast<long long>(expr.column_id),
                      static_cast<long long>(input.num_columns())));
      }
      *out = input.column(expr.column_id);
      return Status::OK();
    }
    case ExprKind::kConstant: {
      out->Resize(n);
      if (n == 0) return Status::OK();
      // Coerce once, then a typed fill (no per-row Value dispatch).
      const Value& v = expr.constant;
      switch (out->type()) {
        case DataType::kBool: {
          const uint8_t b =
              (v.type == DataType::kBool ? v.b : v.AsDouble() != 0) ? 1 : 0;
          uint8_t* o = out->bools();
          std::fill(o, o + n, b);
          break;
        }
        case DataType::kInt64: {
          const int64_t iv = v.type == DataType::kInt64
                                 ? v.i
                                 : static_cast<int64_t>(v.AsDouble());
          int64_t* o = out->ints();
          std::fill(o, o + n, iv);
          break;
        }
        case DataType::kFloat: {
          const float fv = v.type == DataType::kFloat
                               ? v.f
                               : static_cast<float>(v.AsDouble());
          float* o = out->floats();
          std::fill(o, o + n, fv);
          break;
        }
      }
      return Status::OK();
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, input, out);
    case ExprKind::kUnary: {
      Vector child(expr.children[0]->type);
      INDBML_RETURN_NOT_OK(EvaluateExpr(*expr.children[0], input, &child));
      child.Flatten();
      out->Resize(n);
      if (expr.un_op == UnaryOp::kNot) {
        const uint8_t* a = std::as_const(child).bools();
        uint8_t* o = out->bools();
        for (int64_t i = 0; i < n; ++i) o[i] = a[i] ? 0 : 1;
      } else if (child.type() == DataType::kInt64) {
        const int64_t* a = std::as_const(child).ints();
        int64_t* o = out->ints();
        for (int64_t i = 0; i < n; ++i) o[i] = WrapInt64(0 - ToBits(a[i]));
      } else {
        const float* a = std::as_const(child).floats();
        float* o = out->floats();
        for (int64_t i = 0; i < n; ++i) o[i] = -a[i];
      }
      return Status::OK();
    }
    case ExprKind::kFunction: {
      Vector child(expr.children[0]->type);
      INDBML_RETURN_NOT_OK(EvaluateExpr(*expr.children[0], input, &child));
      child.Flatten();
      std::vector<float> tmp;
      const float* a = AsFloats(child, &tmp);
      out->Resize(n);
      float* o = out->floats();
      switch (expr.fn) {
        case ScalarFn::kSigmoid:
          for (int64_t i = 0; i < n; ++i) o[i] = blas::ScalarSigmoid(a[i]);
          break;
        case ScalarFn::kTanh:
          for (int64_t i = 0; i < n; ++i) o[i] = blas::ScalarTanh(a[i]);
          break;
        case ScalarFn::kRelu:
          for (int64_t i = 0; i < n; ++i) o[i] = blas::ScalarRelu(a[i]);
          break;
        case ScalarFn::kExp:
          for (int64_t i = 0; i < n; ++i) o[i] = std::exp(a[i]);
          break;
        case ScalarFn::kAbs:
          for (int64_t i = 0; i < n; ++i) o[i] = std::fabs(a[i]);
          break;
        case ScalarFn::kSin:
          for (int64_t i = 0; i < n; ++i) o[i] = std::sin(a[i]);
          break;
      }
      return Status::OK();
    }
    case ExprKind::kCase: {
      out->Resize(n);
      std::vector<uint8_t> decided(static_cast<size_t>(n), 0);
      size_t i = 0;
      for (; i + 1 < expr.children.size(); i += 2) {
        Vector cond(DataType::kBool);
        INDBML_RETURN_NOT_OK(EvaluateExpr(*expr.children[i], input, &cond));
        Vector then(expr.children[i + 1]->type);
        INDBML_RETURN_NOT_OK(EvaluateExpr(*expr.children[i + 1], input, &then));
        cond.Flatten();
        MergeCaseBranch(then, std::as_const(cond).bools(), &decided, n, out);
      }
      if (i < expr.children.size()) {
        Vector els(expr.children[i]->type);
        INDBML_RETURN_NOT_OK(EvaluateExpr(*expr.children[i], input, &els));
        MergeCaseBranch(els, nullptr, &decided, n, out);
      } else {
        for (int64_t r = 0; r < n; ++r) {
          if (!decided[static_cast<size_t>(r)]) {
            out->SetValue(r, Value::Float(0.0f));
          }
        }
      }
      return Status::OK();
    }
    case ExprKind::kCast: {
      Vector child(expr.children[0]->type);
      INDBML_RETURN_NOT_OK(EvaluateExpr(*expr.children[0], input, &child));
      child.Flatten();
      out->Resize(n);
      // Typed source→target kernels; same truncate-toward-zero semantics as
      // the old per-row Value path.
      switch (expr.type) {
        case DataType::kBool: {
          uint8_t* o = out->bools();
          if (child.type() == DataType::kInt64) {
            const int64_t* a = std::as_const(child).ints();
            for (int64_t r = 0; r < n; ++r) o[r] = a[r] != 0 ? 1 : 0;
          } else if (child.type() == DataType::kFloat) {
            const float* a = std::as_const(child).floats();
            for (int64_t r = 0; r < n; ++r) o[r] = a[r] != 0 ? 1 : 0;
          } else {
            std::memcpy(o, std::as_const(child).bools(),
                        static_cast<size_t>(n));
          }
          break;
        }
        case DataType::kInt64: {
          int64_t* o = out->ints();
          if (child.type() == DataType::kFloat) {
            const float* a = std::as_const(child).floats();
            for (int64_t r = 0; r < n; ++r) {
              o[r] = static_cast<int64_t>(static_cast<double>(a[r]));
            }
          } else if (child.type() == DataType::kBool) {
            const uint8_t* a = std::as_const(child).bools();
            for (int64_t r = 0; r < n; ++r) o[r] = a[r] != 0 ? 1 : 0;
          } else {
            std::memcpy(o, std::as_const(child).ints(),
                        static_cast<size_t>(n) * sizeof(int64_t));
          }
          break;
        }
        case DataType::kFloat: {
          float* o = out->floats();
          if (child.type() == DataType::kInt64) {
            const int64_t* a = std::as_const(child).ints();
            for (int64_t r = 0; r < n; ++r) o[r] = static_cast<float>(a[r]);
          } else if (child.type() == DataType::kBool) {
            const uint8_t* a = std::as_const(child).bools();
            for (int64_t r = 0; r < n; ++r) o[r] = a[r] != 0 ? 1.0f : 0.0f;
          } else {
            std::memcpy(o, std::as_const(child).floats(),
                        static_cast<size_t>(n) * sizeof(float));
          }
          break;
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled expression kind");
}

void AndMaskCompareConstFloat(BinaryOp op, const float* a, float c, int64_t n,
                              uint8_t* mask) {
  AndMaskCompareConstImpl<float, F32x8>(op, a, c, n, mask);
}

void AndMaskCompareConstInt64(BinaryOp op, const int64_t* a, int64_t c,
                              int64_t n, uint8_t* mask) {
  AndMaskCompareConstImpl<int64_t, I64x8>(op, a, c, n, mask);
}

void AppendMaskIndices(const uint8_t* mask, int64_t n, int32_t base,
                       std::vector<int32_t>* out) {
  int64_t i = 0;
  if (simd::UseSimd()) {
    for (; i + simd::kWidth <= n; i += simd::kWidth) {
      unsigned bits = Mask8::FromBytes(mask + i).bits;
      while (bits != 0) {
        const int j = __builtin_ctz(bits);
        out->push_back(base + static_cast<int32_t>(i) + j);
        bits &= bits - 1;
      }
    }
  }
  for (; i < n; ++i) {
    if (mask[i] != 0) out->push_back(base + static_cast<int32_t>(i));
  }
}

void CollectColumnIds(const Expr& expr, std::vector<int64_t>* ids) {
  if (expr.kind == ExprKind::kColumnRef) ids->push_back(expr.column_id);
  for (const auto& c : expr.children) CollectColumnIds(*c, ids);
}

bool RemapColumnIds(Expr* expr, const std::unordered_map<int64_t, int64_t>& mapping) {
  if (expr->kind == ExprKind::kColumnRef) {
    auto it = mapping.find(expr->column_id);
    if (it == mapping.end()) return false;
    expr->column_id = it->second;
  }
  for (auto& c : expr->children) {
    if (!RemapColumnIds(c.get(), mapping)) return false;
  }
  return true;
}

}  // namespace indbml::exec
