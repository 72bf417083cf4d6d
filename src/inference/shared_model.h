#ifndef INDBML_INFERENCE_SHARED_MODEL_H_
#define INDBML_INFERENCE_SHARED_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "device/device.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "storage/table.h"

namespace indbml::inference {

/// \brief The shared model of the native ModelJoin (paper §5.2), owned by
/// the inference layer so every approach runs the same forward pass.
///
/// A SharedModel is complete and immutable once created: the two factories
/// below build it, and every later reader (operator instances of one query,
/// or every query under the serving registry) only reads it. Weights are
/// stored *transposed* ([units x input] row-major) and biases replicated
/// into [units x vectorsize] matrices (§5.4) so the per-chunk inference is
/// plain GEMM + one large addition.
///
/// On a GPU device the build writes host staging buffers and then uploads
/// the finished model to device memory once (the §5.2 optimisation
/// avoiding fine-grained transfers).
class SharedModel {
 public:
  /// The §5.2 parallel build from the relational model table
  /// (unique-node-id representation, 14 columns). Pool tasks claim
  /// kRowsPerBlock row ranges and parse them into the host weights; the
  /// first parse error wins and stops further claims. The upload and the
  /// INDBML_VALIDATE shape check then run on the calling thread. With
  /// `pool == nullptr` the parse runs serially on the calling thread.
  static Result<std::shared_ptr<SharedModel>> FromTable(
      nn::ModelMeta meta, device::Device* device, int vector_size,
      const storage::Table& model_table, ThreadPool* pool);

  /// Builds from in-memory nn::Model weights (the mlruntime path: no
  /// relational model table involved). Transposes the row-major kernels
  /// into the [units x input] layout and replicates biases, then uploads.
  static Result<std::shared_ptr<SharedModel>> FromModel(
      nn::ModelMeta meta, device::Device* device, int vector_size,
      const nn::Model& model);

  ~SharedModel();

  SharedModel(const SharedModel&) = delete;
  SharedModel& operator=(const SharedModel&) = delete;

  const nn::ModelMeta& meta() const { return meta_; }
  device::Device* device() const { return device_; }
  int vector_size() const { return vector_size_; }

  /// Process-unique id of this built-model instance. Rebuilding a model
  /// (redeploy) produces a new SharedModel and therefore a new id — the
  /// InferenceCache and InferenceBatcher key on it, so stale cached results
  /// can never be served for a replaced model and requests against
  /// different versions are never coalesced into one batch.
  int64_t model_id() const { return model_id_; }

  /// Device pointers. Dense layer li: kernel() is [units x input_dim]
  /// (transposed).
  const float* dense_kernel(size_t li) const { return layers_[li].w[0]; }
  const float* dense_bias_matrix(size_t li) const { return layers_[li].bias_mat[0]; }
  /// Recurrent-layer gate weights (LSTM g in [0,4), GRU g in [0,3)):
  /// kernel [units x input_dim], recurrent [units x units], bias matrix
  /// [units x vectorsize].
  const float* lstm_kernel(size_t li, int g) const { return layers_[li].w[g]; }
  const float* lstm_recurrent(size_t li, int g) const { return layers_[li].u[g]; }
  const float* lstm_bias_matrix(size_t li, int g) const {
    return layers_[li].bias_mat[g];
  }

  /// Bytes of device memory held by the model (Table 3 accounting).
  int64_t DeviceBytes() const { return device_bytes_; }

 private:
  struct LayerBuffers {
    // Device buffers; on CPU w/u point into the host staging vectors.
    float* w[nn::kNumGates] = {nullptr, nullptr, nullptr, nullptr};
    float* u[nn::kNumGates] = {nullptr, nullptr, nullptr, nullptr};
    float* bias_mat[nn::kNumGates] = {nullptr, nullptr, nullptr, nullptr};
    int64_t w_size = 0;
    int64_t u_size = 0;
    int64_t bias_size = 0;
  };

  /// Host staging buffers the build writes into (owned storage; uploaded
  /// to the device buffers once the parse is complete).
  struct HostBuffers {
    std::vector<float> w[nn::kNumGates];
    std::vector<float> u[nn::kNumGates];
    std::vector<float> bias[nn::kNumGates];
  };

  /// Shape-invariant check run at build-phase exit under INDBML_VALIDATE=1.
  friend Status ValidateSharedModelShape(const SharedModel& model);

  SharedModel(nn::ModelMeta meta, device::Device* device, int vector_size);

  /// Locates the layer owning node id `node`; kept in `first_node_` order.
  Status LocateLayer(int64_t node, size_t* layer_index) const;

  Status ParsePartition(const storage::Table& model_table,
                        storage::PartitionRange range);
  /// Fills the host weights from in-memory nn::Model weights.
  Status CopyWeights(const nn::Model& model);
  /// Uploads the host weights to the device (replicating the biases) and
  /// runs the INDBML_VALIDATE shape check.
  Status Finish();

  nn::ModelMeta meta_;
  device::Device* device_;
  int vector_size_;
  int64_t model_id_;

  std::vector<int64_t> first_node_;  ///< unique-id layout per layer
  int64_t input_nodes_ = 0;          ///< ids reserved for input nodes

  std::vector<HostBuffers> host_;     ///< staging (owned host storage)
  std::vector<LayerBuffers> layers_;  ///< device buffers (== host on CPU)
  int64_t device_bytes_ = 0;
};

}  // namespace indbml::inference

#endif  // INDBML_INFERENCE_SHARED_MODEL_H_
