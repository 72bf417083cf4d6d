#ifndef INDBML_INTEGRATION_CAPI_OPERATOR_H_
#define INDBML_INTEGRATION_CAPI_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "mlruntime/trt_c_api.h"

namespace indbml::integration {

/// \brief Raven-like in-engine inference through the external runtime's
/// C API (paper class 2, evaluated as TF_CAPI_CPU / TF_CAPI_GPU).
///
/// Each worker instance owns its own runtime session (created from the
/// shared serialized model). Per chunk it converts the engine's columnar
/// vectors into the runtime's row-major input matrix, calls
/// `trt_session_run`, and scatters the row-major result back into columns —
/// the layout-conversion cost the paper attributes to this approach (§6.1).
class CApiInferenceOperator final : public exec::Operator {
 public:
  /// `model_bytes` is the serialized model shared by all worker instances;
  /// `device` is the runtime device name ("cpu"/"gpu").
  CApiInferenceOperator(exec::OperatorPtr child,
                        std::shared_ptr<const std::vector<uint8_t>> model_bytes,
                        std::string device, std::vector<int> input_columns,
                        std::vector<std::string> prediction_names);
  ~CApiInferenceOperator() override;

  const std::vector<exec::DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(exec::ExecContext* ctx) override;
  Status Next(exec::ExecContext* ctx, exec::DataChunk* out, bool* eof) override;
  void Close(exec::ExecContext* ctx) override;
  Status Rewind(exec::ExecContext* ctx) override { return child_->Rewind(ctx); }
  bool MorselDriven() const override { return child_->MorselDriven(); }

  /// Runtime memory of this instance's session (0 before Open).
  int64_t SessionMemoryBytes() const;

 private:
  exec::OperatorPtr child_;
  std::shared_ptr<const std::vector<uint8_t>> model_bytes_;
  std::string device_;
  std::vector<int> input_columns_;
  std::vector<exec::DataType> types_;
  std::vector<std::string> names_;

  ::trt_session* session_ = nullptr;
  std::vector<float> row_major_input_;
  std::vector<float> row_major_output_;
};

}  // namespace indbml::integration

#endif  // INDBML_INTEGRATION_CAPI_OPERATOR_H_
