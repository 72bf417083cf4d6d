#include "exec/validate.h"

#include <cmath>

#include "common/config.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace indbml::exec {

namespace {

const char* TypeName(DataType t) {
  switch (t) {
    case DataType::kBool:
      return "bool";
    case DataType::kInt64:
      return "int64";
    case DataType::kFloat:
      return "float";
  }
  return "?";
}

metrics::Counter* ChunksChecked() {
  static metrics::Counter* counter =
      metrics::Registry::Global().counter("validate.chunks_checked");
  return counter;
}

metrics::Counter* Violations() {
  static metrics::Counter* counter =
      metrics::Registry::Global().counter("validate.violations");
  return counter;
}

}  // namespace

Status ValidateChunk(const DataChunk& chunk, const std::vector<DataType>& types,
                     const std::string& where,
                     const ChunkValidationOptions& options) {
  ChunksChecked()->Increment();
  auto fail = [&](std::string msg) {
    Violations()->Increment();
    return Status::Internal("chunk validation failed at " + where + ": " +
                            std::move(msg));
  };
  if (chunk.num_columns() != static_cast<int64_t>(types.size())) {
    return fail(StrFormat("%lld columns, schema has %lld",
                          static_cast<long long>(chunk.num_columns()),
                          static_cast<long long>(types.size())));
  }
  if (chunk.size < 0) {
    return fail(StrFormat("negative cardinality %lld",
                          static_cast<long long>(chunk.size)));
  }
  if (chunk.size > kDefaultVectorSize) {
    return fail(StrFormat("cardinality %lld exceeds the vector size %d",
                          static_cast<long long>(chunk.size), kDefaultVectorSize));
  }
  for (int64_t c = 0; c < chunk.num_columns(); ++c) {
    const Vector& v = chunk.column(c);
    if (v.type() != types[static_cast<size_t>(c)]) {
      return fail(StrFormat("column %lld is %s, schema says %s",
                            static_cast<long long>(c), TypeName(v.type()),
                            TypeName(types[static_cast<size_t>(c)])));
    }
    if (v.size() != chunk.size) {
      return fail(StrFormat(
          "column %lld length %lld != chunk cardinality %lld",
          static_cast<long long>(c), static_cast<long long>(v.size()),
          static_cast<long long>(chunk.size)));
    }
    if (v.has_selection()) {
      INDBML_RETURN_IF_ERROR(ValidateSelection(
          v.selection()->data(), v.size(), v.base_rows(),
          where + StrFormat(" column %lld", static_cast<long long>(c))));
    }
    if (v.type() == DataType::kFloat && !options.allow_non_finite) {
      // GetFloatAt applies the selection, so selected views validate
      // without being flattened first.
      for (int64_t r = 0; r < v.size(); ++r) {
        if (!std::isfinite(v.GetFloatAt(r))) {
          return fail(StrFormat("non-finite float at column %lld row %lld",
                                static_cast<long long>(c),
                                static_cast<long long>(r)));
        }
      }
    }
  }
  return Status::OK();
}

Status ValidateSelection(const int32_t* sel, int64_t n, int64_t input_size,
                         const std::string& where) {
  for (int64_t i = 0; i < n; ++i) {
    if (sel[i] < 0 || sel[i] >= input_size) {
      Violations()->Increment();
      return Status::Internal(StrFormat(
          "selection validation failed at %s: index %lld at position %lld "
          "outside input of %lld rows",
          where.c_str(), static_cast<long long>(sel[i]),
          static_cast<long long>(i), static_cast<long long>(input_size)));
    }
  }
  return Status::OK();
}

Status ValidatingOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  INDBML_RETURN_IF_ERROR(inner_->Next(ctx, out, eof));
  if (out->size > 0) {
    ChunkValidationOptions options;
    options.allow_non_finite = allow_non_finite_;
    INDBML_RETURN_IF_ERROR(
        ValidateChunk(*out, inner_->output_types(), label_, options));
  }
  return Status::OK();
}

}  // namespace indbml::exec
