#include "inference/runtime.h"

#include <algorithm>
#include <utility>

namespace indbml::inference {

using nn::LayerKind;
using nn::LayerMeta;

struct InferenceRuntime::Scratch {
  device::Device* device = nullptr;
  int64_t vs = 0;
  int64_t input_width = 0;
  int64_t max_units = 0;
  bool has_lstm = false;

  float* x = nullptr;        ///< [input_width x vs]
  float* a = nullptr;        ///< [max_units x vs]
  float* b = nullptr;        ///< [max_units x vs]
  float* z[nn::kNumGates] = {nullptr, nullptr, nullptr, nullptr};
  float* h = nullptr;
  float* c = nullptr;
  float* tmp = nullptr;

  ~Scratch() {
    if (device == nullptr) return;
    device->Free(x, input_width * vs);
    device->Free(a, max_units * vs);
    device->Free(b, max_units * vs);
    if (has_lstm) {
      for (auto& g : z) device->Free(g, max_units * vs);
      device->Free(h, max_units * vs);
      device->Free(c, max_units * vs);
      device->Free(tmp, max_units * vs);
    }
  }
};

InferenceRuntime& InferenceRuntime::Global() {
  static InferenceRuntime* runtime = new InferenceRuntime();
  return *runtime;
}

InferenceRuntime::InferenceRuntime()
    : runs_metric_(metrics::Registry::Global().counter("inference.runs")),
      rows_metric_(metrics::Registry::Global().counter("inference.rows")) {}

InferenceRuntime::~InferenceRuntime() = default;

std::unique_ptr<InferenceRuntime::Scratch> InferenceRuntime::AcquireScratch(
    const SharedModel& model) {
  const nn::ModelMeta& meta = model.meta();
  const int64_t input_width = std::max<int64_t>(1, meta.input_width());
  int64_t max_units = 1;
  bool has_lstm = false;
  for (const LayerMeta& layer : meta.layers) {
    max_units = std::max(max_units, layer.units);
    if (layer.kind != LayerKind::kDense) has_lstm = true;
  }
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < pool_.size(); ++i) {
      Scratch* s = pool_[i].get();
      if (s->device == model.device() && s->vs == model.vector_size() &&
          s->input_width >= input_width && s->max_units >= max_units &&
          (s->has_lstm || !has_lstm)) {
        std::unique_ptr<Scratch> out = std::move(pool_[i]);
        pool_.erase(pool_.begin() + static_cast<ptrdiff_t>(i));
        return out;
      }
    }
  }
  auto s = std::make_unique<Scratch>();
  s->device = model.device();
  s->vs = model.vector_size();
  s->input_width = input_width;
  s->max_units = max_units;
  s->has_lstm = has_lstm;
  device::Device* device = s->device;
  s->x = device->Allocate(s->input_width * s->vs);
  s->a = device->Allocate(max_units * s->vs);
  s->b = device->Allocate(max_units * s->vs);
  if (has_lstm) {
    for (auto& g : s->z) g = device->Allocate(max_units * s->vs);
    s->h = device->Allocate(max_units * s->vs);
    s->c = device->Allocate(max_units * s->vs);
    s->tmp = device->Allocate(max_units * s->vs);
  }
  return s;
}

void InferenceRuntime::ReleaseScratch(std::unique_ptr<Scratch> scratch) {
  MutexLock lock(mu_);
  // Bound the freelist: enough for every executor worker to hold one plus
  // headroom; beyond that the scratch frees its device buffers on drop.
  constexpr size_t kMaxPooled = 32;
  if (pool_.size() < kMaxPooled) pool_.push_back(std::move(scratch));
}

void InferenceRuntime::DenseForward(const SharedModel& model, Scratch* s,
                                    size_t li, const float* x, int64_t in_dim,
                                    int64_t n, float* z) {
  const LayerMeta& layer = model.meta().layers[li];
  device::Device* device = s->device;
  // Bias first (the replicated bias matrix is [units x vectorsize]; copy
  // the first n columns of each row).
  if (n == s->vs) {
    device->CopyOnDevice(z, model.dense_bias_matrix(li), layer.units * n);
  } else {
    for (int64_t u = 0; u < layer.units; ++u) {
      device->CopyOnDevice(z + u * n,
                           model.dense_bias_matrix(li) + u * s->vs, n);
    }
  }
  // z += W[units x in] * x[in x n]
  device->Gemm(false, false, layer.units, n, in_dim, 1.0f, model.dense_kernel(li),
               in_dim, x, n, 1.0f, z, n);
  device->Activate(layer.activation, layer.units * n, z);
}

void InferenceRuntime::LstmForward(const SharedModel& model, Scratch* s,
                                   size_t li, const float* x, int64_t n,
                                   float* h_out) {
  const LayerMeta& layer = model.meta().layers[li];
  const nn::ModelMeta& meta = model.meta();
  device::Device* device = s->device;
  const int64_t units = layer.units;
  const int64_t f = layer.input_dim;  // 1 (univariate)
  const int64_t m = units * n;
  float* h = s->h;
  float* c = s->c;
  float* tmp = s->tmp;

  for (int64_t t = 0; t < meta.timesteps; ++t) {
    const float* x_t = x + t * f * n;  // rows [t*f, (t+1)*f) of the input
    for (int g = 0; g < nn::kNumGates; ++g) {
      float* z = s->z[g];
      // z = bias matrix
      if (n == s->vs) {
        device->CopyOnDevice(z, model.lstm_bias_matrix(li, g), m);
      } else {
        for (int64_t u = 0; u < units; ++u) {
          device->CopyOnDevice(z + u * n,
                               model.lstm_bias_matrix(li, g) + u * s->vs, n);
        }
      }
      // z += W_g[units x f] * x_t[f x n]
      device->Gemm(false, false, units, n, f, 1.0f, model.lstm_kernel(li, g), f,
                   x_t, n, 1.0f, z, n);
      if (t > 0) {
        // z += U_g[units x units] * h[units x n]
        device->Gemm(false, false, units, n, units, 1.0f,
                     model.lstm_recurrent(li, g), units, h, n, 1.0f, z, n);
      }
    }
    device->Activate(nn::Activation::kSigmoid, m, s->z[nn::kGateI]);
    device->Activate(nn::Activation::kSigmoid, m, s->z[nn::kGateF]);
    device->Activate(nn::Activation::kTanh, m, s->z[nn::kGateC]);
    device->Activate(nn::Activation::kSigmoid, m, s->z[nn::kGateO]);

    // c = (t > 0 ? f_gate * c : 0) + i_gate * c~
    device->EwMul(m, s->z[nn::kGateI], s->z[nn::kGateC], tmp);
    if (t > 0) {
      device->EwMul(m, s->z[nn::kGateF], c, c);
      device->EwAdd(m, c, tmp, c);
    } else {
      device->CopyOnDevice(c, tmp, m);
    }
    // h = o_gate * tanh(c)
    device->CopyOnDevice(h, c, m);
    device->Activate(nn::Activation::kTanh, m, h);
    device->EwMul(m, s->z[nn::kGateO], h, h);
  }
  if (h_out != h) device->CopyOnDevice(h_out, h, m);
}

void InferenceRuntime::GruForward(const SharedModel& model, Scratch* s,
                                  size_t li, const float* x, int64_t n,
                                  float* h_out) {
  const LayerMeta& layer = model.meta().layers[li];
  const nn::ModelMeta& meta = model.meta();
  device::Device* device = s->device;
  const int64_t units = layer.units;
  const int64_t f = layer.input_dim;  // 1 (univariate)
  const int64_t m = units * n;
  float* h = s->h;
  float* tmp = s->tmp;

  for (int64_t t = 0; t < meta.timesteps; ++t) {
    const float* x_t = x + t * f * n;
    for (int g = 0; g < nn::kNumGruGates; ++g) {
      float* z = s->z[g];
      if (n == s->vs) {
        device->CopyOnDevice(z, model.lstm_bias_matrix(li, g), m);
      } else {
        for (int64_t u = 0; u < units; ++u) {
          device->CopyOnDevice(z + u * n,
                               model.lstm_bias_matrix(li, g) + u * s->vs, n);
        }
      }
      device->Gemm(false, false, units, n, f, 1.0f, model.lstm_kernel(li, g), f,
                   x_t, n, 1.0f, z, n);
    }
    if (t > 0) {
      device->Gemm(false, false, units, n, units, 1.0f,
                   model.lstm_recurrent(li, nn::kGruZ), units, h, n, 1.0f,
                   s->z[nn::kGruZ], n);
      device->Gemm(false, false, units, n, units, 1.0f,
                   model.lstm_recurrent(li, nn::kGruR), units, h, n, 1.0f,
                   s->z[nn::kGruR], n);
    }
    device->Activate(nn::Activation::kSigmoid, m, s->z[nn::kGruZ]);
    device->Activate(nn::Activation::kSigmoid, m, s->z[nn::kGruR]);
    if (t > 0) {
      // Candidate input: U_h * (r * h_prev).
      device->EwMul(m, s->z[nn::kGruR], h, tmp);
      device->Gemm(false, false, units, n, units, 1.0f,
                   model.lstm_recurrent(li, nn::kGruH), units, tmp, n, 1.0f,
                   s->z[nn::kGruH], n);
    }
    device->Activate(nn::Activation::kTanh, m, s->z[nn::kGruH]);
    device->GruCombine(m, s->z[nn::kGruZ], t > 0 ? h : nullptr,
                       s->z[nn::kGruH], h);
  }
  if (h_out != h) device->CopyOnDevice(h_out, h, m);
}

Status InferenceRuntime::Infer(const SharedModel& model, Scratch* s,
                               const float* x, int64_t n, const float** result) {
  const nn::ModelMeta& meta = model.meta();
  const float* current = x;
  int64_t current_dim = meta.input_width();
  float* front = s->a;
  float* back = s->b;
  for (size_t li = 0; li < meta.layers.size(); ++li) {
    const LayerMeta& layer = meta.layers[li];
    if (layer.kind == LayerKind::kLstm) {
      LstmForward(model, s, li, current, n, front);
    } else if (layer.kind == LayerKind::kGru) {
      GruForward(model, s, li, current, n, front);
    } else {
      DenseForward(model, s, li, current, current_dim, n, front);
    }
    current = front;
    current_dim = layer.units;
    std::swap(front, back);
  }
  *result = current;
  return Status::OK();
}

Status InferenceRuntime::Run(const SharedModel& model, const float* input,
                             int64_t n, float* output) {
  if (n == 0) return Status::OK();
  const nn::ModelMeta& meta = model.meta();
  const int64_t d = meta.input_width();
  const int64_t o = meta.output_dim();
  const int64_t vs = model.vector_size();
  std::unique_ptr<Scratch> s = AcquireScratch(model);
  device::Device* device = s->device;

  // Blocked execution at the model's vector size: each block is the exact
  // chunk-sized forward pass of the original operator, so results are
  // bit-identical no matter how callers slice `n`.
  for (int64_t j0 = 0; j0 < n; j0 += vs) {
    const int64_t bn = std::min<int64_t>(vs, n - j0);
    for (int64_t f = 0; f < d; ++f) {
      device->CopyToDevice(s->x + f * bn, input + f * n + j0, bn);
    }
    const float* result = nullptr;
    Status status = Infer(model, s.get(), s->x, bn, &result);
    if (!status.ok()) {
      ReleaseScratch(std::move(s));
      return status;
    }
    for (int64_t p = 0; p < o; ++p) {
      device->CopyToHost(output + p * n + j0, result + p * bn, bn);
    }
    runs_metric_->Increment(1);
  }
  rows_metric_->Increment(n);
  ReleaseScratch(std::move(s));
  return Status::OK();
}

}  // namespace indbml::inference
