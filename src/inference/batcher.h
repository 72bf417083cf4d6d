#ifndef INDBML_INFERENCE_BATCHER_H_
#define INDBML_INFERENCE_BATCHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "inference/runtime.h"
#include "inference/shared_model.h"

namespace indbml::inference {

/// Per-call inference knobs, plumbed from QueryEngine::Options (the SQL
/// layer carries them as a plain struct so it never includes this header).
struct InferenceOptions {
  /// Cross-query coalescing window: a call willing to wait this long for
  /// other queries' rows against the same model before launching the GEMM.
  /// 0 disables batching entirely (the engine default — single-query
  /// workloads must not pay latency for a batch partner that never comes;
  /// the serving server turns it on).
  int64_t batch_window_us = 0;
  /// Upper bound on coalesced rows per launch; a full batch launches
  /// immediately without waiting out the window.
  int64_t max_batch_rows = 4096;
  /// Consult the InferenceCache before running the NN.
  bool use_cache = false;
};

/// What one Run call experienced, for EXPLAIN ANALYZE phase attribution.
struct InferenceCallStats {
  int64_t wait_micros = 0;  ///< time blocked in the coalescing wait
  int64_t cache_hits = 0;   ///< rows answered from the cache
  int64_t lookup_nanos = 0; ///< time spent in the cache lookup
  int64_t batch_rows = 0;   ///< rows in the coalesced launch this call rode
};

/// \brief Cross-query micro-batcher in front of the InferenceRuntime
/// (ISSUE 10 layer 2; the paper's Figure-8 finding that small per-query
/// batches kill in-database inference throughput).
///
/// Concurrent Run calls against the same model *instance* (keyed by
/// SharedModel::model_id(), so redeployed versions never mix) are coalesced
/// into one GEMM launch. The first call to arrive becomes the batch
/// *leader*: it waits up to `batch_window_us` for followers, then closes
/// the batch, gathers every member's rows into one feature-major matrix,
/// runs the runtime once, and slices the results back. Followers block
/// until the leader marks the batch done. No extra threads: the leader is
/// a borrowed caller thread, so the shared executor's workers keep
/// scheduling other morsels while at most one of them waits per model.
///
/// A call leads (or joins) only when a batch partner is plausible: another
/// call is inside the batcher right now, or a call against the same model
/// arrived within the last window and leading has not recently proven
/// futile (window waited out with no follower). Otherwise it runs inline —
/// a lone query must not pay the window for a partner that never comes.
/// The recency signal matters on few-core machines, where "concurrent"
/// queries interleave instead of overlap: the first recency-triggered
/// leader's wait yields the core, the interleaved partners catch up and
/// join, and from then on real overlap sustains the batching.
///
/// Cancellation: the per-query interrupt flag is polled inside every wait.
/// A *follower* may detach from a batch that is still open (its buffers
/// are not yet being read) and return Cancelled immediately; once the
/// batch closed, it waits out the µs-scale launch and then reports
/// Cancelled. A *leader*'s interrupt simply shortens the window — it must
/// still launch, because followers depend on it. QueryHandle::Cancel calls
/// KickWaiters() so blocked waiters re-check their flag promptly.
///
/// Determinism: every runtime kernel is column-independent, so the
/// coalesced launch is bit-identical to per-query launches (tested across
/// dense/LSTM/GRU in inference_test.cc).
class InferenceBatcher {
 public:
  /// The process-wide batcher.
  static InferenceBatcher& Global();

  InferenceBatcher();

  InferenceBatcher(const InferenceBatcher&) = delete;
  InferenceBatcher& operator=(const InferenceBatcher&) = delete;

  /// Runs `n` feature-major input tuples ([input_width x n]) through the
  /// cache (optional) and the coalesced runtime, writing [output_dim x n]
  /// into `out`. `interrupt` may be null; `stats` may be null.
  Status Run(const std::shared_ptr<SharedModel>& model, const float* in,
             int64_t n, float* out, const InferenceOptions& opts,
             const std::atomic<bool>* interrupt, InferenceCallStats* stats)
      INDBML_EXCLUDES(mu_);

  /// Wakes every thread blocked inside a batcher wait so it re-checks its
  /// interrupt flag. Called by QueryHandle::Cancel.
  void KickWaiters() INDBML_EXCLUDES(mu_);

 private:
  /// One caller's slice of a pending batch.
  struct Request {
    const float* in = nullptr;
    int64_t n = 0;
    float* out = nullptr;
  };

  /// A pending coalesced launch for one model instance. Fields are guarded
  /// by the batcher mutex except `combined`/`combined_out`, which only the
  /// leader touches after the batch is closed.
  ///
  /// Each batch owns its condition variable: waking a batch must not wake
  /// waiters of unrelated batches. With one shared condvar every completion
  /// was a process-wide thundering herd — on a saturated few-core machine
  /// the spurious wakeups (each re-acquiring the batcher mutex just to go
  /// back to sleep) cost more than the coalescing saved.
  struct Batch {
    std::shared_ptr<SharedModel> model;
    CondVar cv;  ///< leader waits pre-close, followers wait for `done`
    std::vector<Request*> members;
    int64_t rows = 0;
    bool closed = false;  ///< no more joins/detaches; leader owns buffers
    bool done = false;    ///< results scattered, status valid
    Status status;
    std::vector<float> combined;
    std::vector<float> combined_out;
  };

  /// The coalescing core: joins or leads a batch for the given rows.
  Status Submit(const std::shared_ptr<SharedModel>& model, const float* in,
                int64_t n, float* out, const InferenceOptions& opts,
                const std::atomic<bool>* interrupt, InferenceCallStats* stats)
      INDBML_EXCLUDES(mu_);

  /// Per-model coalescing state: the bootstrap signal for the lead-or-inline
  /// decision (see class comment) and the joinable-call count that lets a
  /// leader close its window early once every call that could join has.
  struct ArrivalState {
    int64_t last_micros = 0;  ///< monotonic time of the last Submit; 0 = never
    bool futile = false;      ///< last recency-led window expired partnerless
    /// Calls on the batch path for this model not yet bound to a closed
    /// batch. When this equals the open batch's member count, no joiner is
    /// in flight and waiting further can only gain brand-new arrivals.
    int64_t pending = 0;
  };

  Mutex mu_;
  /// Open (still joinable) batch per model instance id.
  std::unordered_map<int64_t, std::shared_ptr<Batch>> open_
      INDBML_GUARDED_BY(mu_);
  /// Every batch with possible waiters (open or closed-but-not-done), so
  /// KickWaiters can reach them; entries leave when the batch is done.
  std::vector<std::shared_ptr<Batch>> live_ INDBML_GUARDED_BY(mu_);
  /// Last-arrival tracking per model instance id.
  std::unordered_map<int64_t, ArrivalState> arrivals_ INDBML_GUARDED_BY(mu_);
  /// Calls currently inside Submit; when ≤ 1 there is nobody to coalesce
  /// with and the window wait is skipped (single-query latency guard).
  std::atomic<int64_t> active_calls_{0};

  metrics::Counter* batches_metric_;        ///< inference.batches
  metrics::Histogram* batch_rows_metric_;   ///< inference.batch_rows
  metrics::Histogram* wait_micros_metric_;  ///< inference.batch_wait_micros
};

}  // namespace indbml::inference

#endif  // INDBML_INFERENCE_BATCHER_H_
