#ifndef INDBML_MODELJOIN_MODEL_REGISTRY_H_
#define INDBML_MODELJOIN_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "inference/shared_model.h"

namespace indbml::modeljoin {

/// \brief Process-wide registry of built SharedModels, keyed on
/// (model name, device name).
///
/// The per-query SharedModel of the original ModelJoin makes every query
/// rebuild the model from the model table — the paper's headline per-query
/// build cost, which compounds linearly under concurrent load. The registry
/// lifts the model out of per-query state (MorphingDB's model-management
/// idea): the first query over a (model, device) pair builds it once via
/// SharedModel::FromTable, and every concurrent and later query
/// block-shares the finished weights.
///
/// Concurrency: lookups are single-flight. The first caller inserts a
/// pending entry and builds outside the lock; callers that race it wait on
/// a condvar for the build outcome (shared — including a shared failure).
///
/// Invalidation: each entry pins the model-table TablePtr it was built
/// from. A lookup presenting a *different* table pointer for the same key
/// (the catalog replaced the model table, i.e. the model was re-deployed)
/// evicts the stale entry and rebuilds — version-by-identity, exploiting
/// that tables are frozen by Finalize() before catalog registration.
///
/// Metrics: modeljoin.registry_{hits,misses,builds,evictions,invalidations}
/// counters and the modeljoin.registry_models gauge. `registry_builds` is
/// the build-exactly-once assertion hook for the serving stress tests.
class SharedModelRegistry {
 public:
  /// The process-wide instance used by the registered ModelJoin state
  /// factory when a query opts into shared models.
  static SharedModelRegistry& Global();

  explicit SharedModelRegistry(int64_t capacity = 8);

  SharedModelRegistry(const SharedModelRegistry&) = delete;
  SharedModelRegistry& operator=(const SharedModelRegistry&) = delete;

  /// Returns the built model for (meta.name, device_name), building it
  /// (once, serially, on the calling thread) on miss. Blocks while another
  /// thread is building the same entry. A failed build is removed, so a
  /// later call retries.
  Result<std::shared_ptr<inference::SharedModel>> GetOrBuild(
      const nn::ModelMeta& meta, device::Device* device,
      const std::string& device_name, storage::TablePtr model_table,
      int vector_size) INDBML_EXCLUDES(mu_);

  /// Drops every entry for this model name (all devices) — explicit DDL
  /// invalidation (model undeployed / re-registered).
  void InvalidateModel(const std::string& model_name) INDBML_EXCLUDES(mu_);

  /// Drops everything (tests and benches isolating build-count metrics).
  void Clear() INDBML_EXCLUDES(mu_);

  int64_t size() const INDBML_EXCLUDES(mu_);
  /// Max resident models; least-recently-used ready entries are evicted
  /// beyond it. Takes effect on the next insertion.
  void set_capacity(int64_t capacity) INDBML_EXCLUDES(mu_);

 private:
  /// One (model, device) slot. `ready` flips exactly once, under mu_, after
  /// the single-flight build finished; waiters re-check it in a condvar
  /// loop. The entry is shared_ptr-held so an invalidation racing a build
  /// cannot free it under the builder.
  struct Entry {
    /// Null until ready && status.ok().
    std::shared_ptr<inference::SharedModel> model;
    Status status;                       ///< build outcome, valid once ready
    storage::TablePtr table;             ///< model table the build consumed
    bool ready = false;
    int64_t last_used = 0;  ///< LRU stamp (ticks of use_tick_)
  };

  void EvictOverCapacityLocked() INDBML_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar build_done_;
  int64_t capacity_ INDBML_GUARDED_BY(mu_);
  int64_t use_tick_ INDBML_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_
      INDBML_GUARDED_BY(mu_);
};

}  // namespace indbml::modeljoin

#endif  // INDBML_MODELJOIN_MODEL_REGISTRY_H_
