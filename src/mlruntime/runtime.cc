#include "mlruntime/runtime.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/config.h"
#include "inference/runtime.h"
#include "nn/model_meta.h"

namespace indbml::mlruntime {

namespace {

device::Device* DefaultRuntimeDevice(const std::string& name) {
  return (name == "gpu" || name == "simgpu") ? device::SharedSimGpuDevice()
                                             : device::SharedCpuDevice();
}

}  // namespace

/// The session compiles the model into an inference::SharedModel and runs
/// it through the shared InferenceRuntime — the same forward pass the
/// native ModelJoin uses, so the approaches differ only in how data reaches
/// it. The runtime's interface stays deliberately ROW-MAJOR: every Run
/// transposes the batch into the engine's feature-major layout and the
/// results back, which is exactly the conversion cost the paper's C-API
/// measurements include.
struct Session::Impl {
  device::Device* device = nullptr;
  nn::ModelMeta meta;
  std::shared_ptr<inference::SharedModel> model;
  /// Host transpose staging, grown to the largest batch seen.
  std::vector<float> input_t;   ///< feature-major [input_width x n]
  std::vector<float> output_t;  ///< feature-major [output_dim x n]
};

Session::Session() : impl_(std::make_unique<Impl>()) {}
Session::~Session() = default;

Result<std::unique_ptr<Session>> Session::Create(const nn::Model& model,
                                                 const std::string& device_name,
                                                 device::Device* device) {
  auto session = std::unique_ptr<Session>(new Session());
  Impl& impl = *session->impl_;
  impl.device = device != nullptr ? device : DefaultRuntimeDevice(device_name);
  impl.meta = nn::MetaOf(model, "session");
  INDBML_ASSIGN_OR_RETURN(
      impl.model, inference::SharedModel::FromModel(impl.meta, impl.device,
                                                    kDefaultVectorSize, model));
  return session;
}

int64_t Session::input_width() const { return impl_->meta.input_width(); }
int64_t Session::output_dim() const { return impl_->meta.output_dim(); }
device::Device* Session::device() const { return impl_->device; }

int64_t Session::MemoryBytes() const {
  return impl_->model->DeviceBytes() +
         static_cast<int64_t>((impl_->input_t.capacity() +
                               impl_->output_t.capacity()) *
                              sizeof(float));
}

Status Session::Run(const float* input, int64_t n, float* output) {
  Impl& impl = *impl_;
  const nn::ModelMeta& meta = impl.meta;
  if (n <= 0) return Status::OK();
  const int64_t d = meta.input_width();
  const int64_t o = meta.output_dim();

  // Layout tax in: row-major [n x d] → feature-major [d x n].
  impl.input_t.resize(static_cast<size_t>(d * n));
  impl.output_t.resize(static_cast<size_t>(o * n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t f = 0; f < d; ++f) {
      impl.input_t[static_cast<size_t>(f * n + i)] = input[i * d + f];
    }
  }

  INDBML_RETURN_NOT_OK(inference::InferenceRuntime::Global().Run(
      *impl.model, impl.input_t.data(), n, impl.output_t.data()));

  // Layout tax out: feature-major [o x n] → row-major [n x o].
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t p = 0; p < o; ++p) {
      output[i * o + p] = impl.output_t[static_cast<size_t>(p * n + i)];
    }
  }
  return Status::OK();
}

}  // namespace indbml::mlruntime
