#ifndef INDBML_EXEC_VALIDATE_H_
#define INDBML_EXEC_VALIDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/validation.h"
#include "exec/operator.h"

namespace indbml::exec {

/// \brief Runtime invariant validators for the data flowing between
/// operators (enabled by `INDBML_VALIDATE=1`, see common/validation.h).
///
/// The validators catch the bug classes that silently corrupt benchmark
/// results instead of crashing: a chunk whose columns disagree on length, a
/// selection/row index pointing outside its source chunk, or a NaN escaping
/// an operator that has no business producing one.

/// Options for ValidateChunk.
struct ChunkValidationOptions {
  /// Model-output chunks may legitimately carry NaN/Inf (the model computed
  /// it); everything else propagating a NaN is a corrupted intermediate.
  bool allow_non_finite = false;
};

/// Checks one inter-operator chunk: column count and types match `types`,
/// the cardinality is at most kDefaultVectorSize (consumers size per-chunk
/// buffers by it), every column's length equals `chunk.size`, each column's selection
/// vector (if any) stays inside its base window, and float columns are
/// finite unless `allow_non_finite`. `where` names the producing operator
/// for the error message.
Status ValidateChunk(const DataChunk& chunk, const std::vector<DataType>& types,
                     const std::string& where,
                     const ChunkValidationOptions& options = {});

/// Checks that all `n` row/selection indices in `sel` lie inside
/// `[0, input_size)` (filter/scan selection vectors, join gather paths).
Status ValidateSelection(const int32_t* sel, int64_t n, int64_t input_size,
                         const std::string& where);

/// \brief Validation decorator around any Operator: re-checks every chunk
/// the wrapped operator emits. Instantiated by the physical planner only
/// when validation is enabled, so normal execution pays nothing.
class ValidatingOperator final : public Operator {
 public:
  ValidatingOperator(OperatorPtr inner, std::string label, bool allow_non_finite)
      : inner_(std::move(inner)),
        label_(std::move(label)),
        allow_non_finite_(allow_non_finite) {}

  const std::vector<DataType>& output_types() const override {
    return inner_->output_types();
  }
  const std::vector<std::string>& output_names() const override {
    return inner_->output_names();
  }

  Status Open(ExecContext* ctx) override { return inner_->Open(ctx); }
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override { inner_->Close(ctx); }
  Status Rewind(ExecContext* ctx) override { return inner_->Rewind(ctx); }
  bool MorselDriven() const override { return inner_->MorselDriven(); }

 private:
  OperatorPtr inner_;
  std::string label_;
  bool allow_non_finite_;
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_VALIDATE_H_
