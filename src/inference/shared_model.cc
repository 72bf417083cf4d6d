#include "inference/shared_model.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/config.h"
#include "common/mutex.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "common/validation.h"
#include "inference/cache.h"
#include "inference/validate.h"

namespace indbml::inference {

using nn::LayerKind;
using nn::LayerMeta;

namespace {

/// Column order of the unique-node-id relational representation.
struct ModelTableColumns {
  int node_in = -1;
  int node = -1;
  int w[nn::kNumGates] = {-1, -1, -1, -1};
  int u[nn::kNumGates] = {-1, -1, -1, -1};
  int b[nn::kNumGates] = {-1, -1, -1, -1};
};

Result<ModelTableColumns> ResolveColumns(const storage::Table& table) {
  ModelTableColumns cols;
  auto get = [&](const char* name) -> Result<int> { return table.ColumnIndex(name); };
  INDBML_ASSIGN_OR_RETURN(cols.node_in, get("node_in"));
  INDBML_ASSIGN_OR_RETURN(cols.node, get("node"));
  const char* gates = "ifco";
  for (int g = 0; g < nn::kNumGates; ++g) {
    char name[8];
    std::snprintf(name, sizeof(name), "w_%c", gates[g]);
    INDBML_ASSIGN_OR_RETURN(cols.w[g], get(name));
    std::snprintf(name, sizeof(name), "u_%c", gates[g]);
    INDBML_ASSIGN_OR_RETURN(cols.u[g], get(name));
    std::snprintf(name, sizeof(name), "b_%c", gates[g]);
    INDBML_ASSIGN_OR_RETURN(cols.b[g], get(name));
  }
  if (table.ColumnIndex("layer").ok()) {
    return Status::InvalidArgument(
        "the native ModelJoin expects the unique-node-id model representation "
        "(no layer columns); regenerate the model table with "
        "MlToSqlOptions::unique_node_ids");
  }
  return cols;
}

/// Process-unique model-instance ids (cache/batcher keying; see model_id()).
int64_t NextModelId() {
  static std::atomic<int64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

SharedModel::SharedModel(nn::ModelMeta meta, device::Device* device,
                         int vector_size)
    : meta_(std::move(meta)),
      device_(device),
      vector_size_(vector_size),
      model_id_(NextModelId()) {
  // Unique-node-id layout: input nodes first for dense-input models.
  const bool dense_input =
      meta_.layers.empty() || meta_.layers[0].kind == LayerKind::kDense;
  input_nodes_ = dense_input ? meta_.input_width() : 0;
  int64_t next = input_nodes_;
  for (const LayerMeta& layer : meta_.layers) {
    first_node_.push_back(next);
    next += layer.units;
  }

  // Allocate staging and device buffers.
  host_.resize(meta_.layers.size());
  layers_.resize(meta_.layers.size());
  const bool gpu = device_->is_gpu();
  for (size_t li = 0; li < meta_.layers.size(); ++li) {
    const LayerMeta& layer = meta_.layers[li];
    HostBuffers& h = host_[li];
    LayerBuffers& d = layers_[li];
    int gates = layer.kind == LayerKind::kDense  ? 1
                : layer.kind == LayerKind::kLstm ? nn::kNumGates
                                                 : nn::kNumGruGates;
    d.w_size = layer.units * layer.input_dim;
    d.u_size = layer.kind == LayerKind::kDense ? 0 : layer.units * layer.units;
    d.bias_size = layer.units;
    for (int g = 0; g < gates; ++g) {
      h.w[g].assign(static_cast<size_t>(d.w_size), 0.0f);
      h.bias[g].assign(static_cast<size_t>(d.bias_size), 0.0f);
      if (d.u_size > 0) h.u[g].assign(static_cast<size_t>(d.u_size), 0.0f);
      if (gpu) {
        d.w[g] = device_->Allocate(d.w_size);
        d.bias_mat[g] = device_->Allocate(layer.units * vector_size_);
        if (d.u_size > 0) d.u[g] = device_->Allocate(d.u_size);
      } else {
        d.w[g] = h.w[g].data();
        d.bias_mat[g] = device_->Allocate(layer.units * vector_size_);
        d.u[g] = d.u_size > 0 ? h.u[g].data() : nullptr;
      }
      device_bytes_ += (d.w_size + layer.units * vector_size_ + d.u_size) * 4;
    }
  }
}

SharedModel::~SharedModel() {
  // No query can look this instance's id up again: its cached predictions
  // go with it.
  InferenceCache::Global().InvalidateModel(model_id_);
  const bool gpu = device_->is_gpu();
  for (size_t li = 0; li < meta_.layers.size(); ++li) {
    const LayerMeta& layer = meta_.layers[li];
    int gates = layer.kind == LayerKind::kDense  ? 1
                : layer.kind == LayerKind::kLstm ? nn::kNumGates
                                                 : nn::kNumGruGates;
    for (int g = 0; g < gates; ++g) {
      if (gpu) {
        device_->Free(layers_[li].w[g], layers_[li].w_size);
        if (layers_[li].u[g] != nullptr) {
          device_->Free(layers_[li].u[g], layers_[li].u_size);
        }
      }
      device_->Free(layers_[li].bias_mat[g], layer.units * vector_size_);
    }
  }
}

Status SharedModel::LocateLayer(int64_t node, size_t* layer_index) const {
  for (size_t li = meta_.layers.size(); li-- > 0;) {
    if (node >= first_node_[li]) {
      if (node >= first_node_[li] + meta_.layers[li].units) break;
      *layer_index = li;
      return Status::OK();
    }
  }
  return Status::ExecutionError(
      StrFormat("model-table node id %lld outside the registered model layout",
                static_cast<long long>(node)));
}

Status SharedModel::ParsePartition(const storage::Table& model_table,
                                   storage::PartitionRange range) {
  INDBML_ASSIGN_OR_RETURN(ModelTableColumns cols, ResolveColumns(model_table));
  const storage::Column& node_in_col = model_table.column(cols.node_in);
  const storage::Column& node_col = model_table.column(cols.node);

  for (int64_t r = range.begin; r < range.end; ++r) {
    int64_t node_in = node_in_col.GetInt64(r);
    int64_t node = node_col.GetInt64(r);
    if (node < input_nodes_) {
      // Artificial-input edge of a dense-input model (weight 1): the native
      // operator reads the input columns directly, nothing to store.
      continue;
    }
    size_t li;
    INDBML_RETURN_IF_ERROR(LocateLayer(node, &li));
    const LayerMeta& layer = meta_.layers[li];
    HostBuffers& h = host_[li];
    int64_t out = node - first_node_[li];

    if (layer.kind == LayerKind::kDense) {
      int64_t prev_first = li == 0 ? 0 : first_node_[li - 1];
      int64_t in = node_in - prev_first;
      if (in < 0 || in >= layer.input_dim) {
        return Status::ExecutionError("dense edge with out-of-range node_in");
      }
      // Transposed storage: w[out][in].
      h.w[0][out * layer.input_dim + in] =
          model_table.column(cols.w[0]).GetFloat(r);
      if (in == 0) {
        // Exactly one edge per output node carries the bias write (the
        // value is replicated on every in-edge, §4.3).
        h.bias[0][out] = model_table.column(cols.b[0]).GetFloat(r);
      }
    } else {
      if (layer.input_dim != 1) {
        return Status::NotImplemented(
            "native ModelJoin supports univariate recurrent input");
      }
      int gates =
          layer.kind == LayerKind::kLstm ? nn::kNumGates : nn::kNumGruGates;
      if (node_in == -1) {
        // Kernel edge (+ biases).
        for (int g = 0; g < gates; ++g) {
          h.w[g][out] = model_table.column(cols.w[g]).GetFloat(r);
          h.bias[g][out] = model_table.column(cols.b[g]).GetFloat(r);
        }
      } else {
        int64_t in = node_in - first_node_[li];
        if (in < 0 || in >= layer.units) {
          return Status::ExecutionError("recurrent edge with out-of-range node_in");
        }
        for (int g = 0; g < gates; ++g) {
          h.u[g][out * layer.units + in] =
              model_table.column(cols.u[g]).GetFloat(r);
        }
      }
    }
  }
  return Status::OK();
}

Status SharedModel::Finish() {
  const bool gpu = device_->is_gpu();
  for (size_t li = 0; li < meta_.layers.size(); ++li) {
    const LayerMeta& layer = meta_.layers[li];
    int gates = layer.kind == LayerKind::kDense  ? 1
                : layer.kind == LayerKind::kLstm ? nn::kNumGates
                                                 : nn::kNumGruGates;
    for (int g = 0; g < gates; ++g) {
      if (gpu) {
        device_->CopyToDevice(layers_[li].w[g], host_[li].w[g].data(),
                              layers_[li].w_size);
        if (layers_[li].u_size > 0) {
          device_->CopyToDevice(layers_[li].u[g], host_[li].u[g].data(),
                                layers_[li].u_size);
        }
      }
      // Replicate the bias vector into the [units x vectorsize] matrix
      // (§5.4: one-time effort so bias addition is a single large copy).
      std::vector<float> expanded(
          static_cast<size_t>(layer.units * vector_size_));
      for (int64_t u = 0; u < layer.units; ++u) {
        float b = host_[li].bias[g][u];
        for (int v = 0; v < vector_size_; ++v) {
          expanded[static_cast<size_t>(u * vector_size_ + v)] = b;
        }
      }
      device_->CopyToDevice(layers_[li].bias_mat[g], expanded.data(),
                            layer.units * vector_size_);
    }
  }
  if (validation::Enabled()) return ValidateSharedModelShape(*this);
  return Status::OK();
}

Result<std::shared_ptr<SharedModel>> SharedModel::FromTable(
    nn::ModelMeta meta, device::Device* device, int vector_size,
    const storage::Table& model_table, ThreadPool* pool) {
  trace::Span span("modeljoin.build");
  std::shared_ptr<SharedModel> model(new SharedModel(std::move(meta), device,
                                                     vector_size));
  // Block-wise parse: each task claims kRowsPerBlock-row ranges through
  // ParallelFor's shared index. Parsed writes are disjoint per model-table
  // row, so claimed ranges never conflict, and ParallelFor's return makes
  // them visible to this thread.
  const int64_t rows = model_table.num_rows();
  const int blocks = static_cast<int>((rows + kRowsPerBlock - 1) / kRowsPerBlock);
  std::atomic<bool> failed{false};
  Mutex error_mu;
  Status first_error;
  auto parse_block = [&](int block) {
    if (failed.load(std::memory_order_relaxed)) return;
    const int64_t begin = int64_t{block} * kRowsPerBlock;
    Status status = model->ParsePartition(
        model_table, {begin, std::min(begin + kRowsPerBlock, rows)});
    if (!status.ok()) {
      MutexLock lock(error_mu);
      if (first_error.ok()) first_error = status;
      // lock-free: only stops further claims early; the error itself is
      // read under error_mu after ParallelFor returned.
      failed.store(true, std::memory_order_relaxed);
    }
  };
  if (pool != nullptr && blocks > 1) {
    pool->ParallelFor(blocks, parse_block);
  } else {
    for (int block = 0; block < blocks; ++block) parse_block(block);
  }
  {
    MutexLock lock(error_mu);
    INDBML_RETURN_NOT_OK(first_error);
  }
  INDBML_RETURN_NOT_OK(model->Finish());
  return model;
}

Result<std::shared_ptr<SharedModel>> SharedModel::FromModel(
    nn::ModelMeta meta, device::Device* device, int vector_size,
    const nn::Model& model) {
  std::shared_ptr<SharedModel> shared(new SharedModel(std::move(meta), device,
                                                      vector_size));
  INDBML_RETURN_NOT_OK(shared->CopyWeights(model));
  INDBML_RETURN_NOT_OK(shared->Finish());
  return shared;
}

Status SharedModel::CopyWeights(const nn::Model& model) {
  if (model.layers().size() != meta_.layers.size()) {
    return Status::InvalidArgument(
        "model layer count does not match the meta this SharedModel was "
        "constructed with");
  }
  for (size_t li = 0; li < meta_.layers.size(); ++li) {
    const nn::Layer& src = model.layers()[li];
    const LayerMeta& layer = meta_.layers[li];
    if (src.kind != layer.kind || src.units() != layer.units ||
        src.input_dim() != layer.input_dim) {
      return Status::InvalidArgument("model layer shape does not match meta");
    }
    HostBuffers& h = host_[li];
    if (layer.kind == LayerKind::kDense) {
      // nn kernels are row-major [input_dim x units]; the shared layout is
      // the transposed [units x input_dim].
      for (int64_t in = 0; in < layer.input_dim; ++in) {
        for (int64_t u = 0; u < layer.units; ++u) {
          h.w[0][u * layer.input_dim + in] = src.dense.kernel[in * layer.units + u];
        }
      }
      for (int64_t u = 0; u < layer.units; ++u) h.bias[0][u] = src.dense.bias[u];
    } else {
      const bool lstm = layer.kind == LayerKind::kLstm;
      const int gates = lstm ? nn::kNumGates : nn::kNumGruGates;
      for (int g = 0; g < gates; ++g) {
        const nn::Tensor& kernel = lstm ? src.lstm.kernel[g] : src.gru.kernel[g];
        const nn::Tensor& recurrent =
            lstm ? src.lstm.recurrent[g] : src.gru.recurrent[g];
        const nn::Tensor& bias = lstm ? src.lstm.bias[g] : src.gru.bias[g];
        for (int64_t in = 0; in < layer.input_dim; ++in) {
          for (int64_t u = 0; u < layer.units; ++u) {
            h.w[g][u * layer.input_dim + in] = kernel[in * layer.units + u];
          }
        }
        for (int64_t in = 0; in < layer.units; ++in) {
          for (int64_t u = 0; u < layer.units; ++u) {
            h.u[g][u * layer.units + in] = recurrent[in * layer.units + u];
          }
        }
        for (int64_t u = 0; u < layer.units; ++u) h.bias[g][u] = bias[u];
      }
    }
  }
  return Status::OK();
}

Status ValidateSharedModelShape(const SharedModel& model) {
  const nn::ModelMeta& meta = model.meta_;
  for (size_t li = 0; li < meta.layers.size(); ++li) {
    const LayerMeta& layer = meta.layers[li];
    auto fail = [&](const char* what) {
      return Status::Internal(
          StrFormat("shared-model shape validation failed at layer %lld: %s",
                    static_cast<long long>(li), what));
    };
    if (layer.units <= 0 || layer.input_dim <= 0) {
      return fail("non-positive layer dimensions");
    }
    // Layer dimension chain: each layer consumes exactly what the previous
    // one produces (the first dense layer consumes the model input width).
    if (li > 0 && layer.kind == LayerKind::kDense &&
        layer.input_dim != meta.layers[li - 1].units) {
      return fail("input_dim does not chain to the previous layer's units");
    }
    const SharedModel::LayerBuffers& d = model.layers_[li];
    // Transposed-weight extents: kernel is [units x input_dim], recurrent
    // [units x units], bias staging [units].
    if (d.w_size != layer.units * layer.input_dim) {
      return fail("transposed kernel extent != units x input_dim");
    }
    int64_t expected_u =
        layer.kind == LayerKind::kDense ? 0 : layer.units * layer.units;
    if (d.u_size != expected_u) {
      return fail("recurrent weight extent != units x units");
    }
    if (d.bias_size != layer.units) return fail("bias extent != units");
    int gates = layer.kind == LayerKind::kDense  ? 1
                : layer.kind == LayerKind::kLstm ? nn::kNumGates
                                                 : nn::kNumGruGates;
    for (int g = 0; g < gates; ++g) {
      if (d.w[g] == nullptr || d.bias_mat[g] == nullptr) {
        return fail("missing device buffer");
      }
      if (expected_u > 0 && d.u[g] == nullptr) {
        return fail("missing recurrent device buffer");
      }
      // Replicated bias rows: every row of the [units x vectorsize] bias
      // matrix must hold one constant (§5.4 replication). The simulated
      // device keeps buffers host-readable, so this is directly checkable.
      const float* bias_mat = d.bias_mat[g];
      const std::vector<float>& bias = model.host_[li].bias[g];
      for (int64_t u = 0; u < layer.units; ++u) {
        const float expected = bias[static_cast<size_t>(u)];
        for (int v = 0; v < model.vector_size_; ++v) {
          float got = bias_mat[u * model.vector_size_ + v];
          if (got != expected) {
            return fail("bias matrix row not a replication of the bias vector");
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace indbml::inference
