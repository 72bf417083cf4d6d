#include "modeljoin/model_registry.h"

#include <algorithm>

#include "common/config.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace indbml::modeljoin {

using inference::SharedModel;

namespace {

std::string MakeKey(const std::string& model_name, const std::string& device) {
  return model_name + "|" + device;
}

metrics::Counter* RegistryCounter(const char* which) {
  return metrics::Registry::Global().counter(std::string("modeljoin.registry_") +
                                             which);
}

void SetSizeGauge(int64_t size) {
  metrics::Registry::Global().gauge("modeljoin.registry_models")->Set(size);
}

}  // namespace

SharedModelRegistry& SharedModelRegistry::Global() {
  static SharedModelRegistry* registry = new SharedModelRegistry();
  return *registry;
}

SharedModelRegistry::SharedModelRegistry(int64_t capacity)
    : capacity_(std::max<int64_t>(1, capacity)) {}

Result<std::shared_ptr<SharedModel>> SharedModelRegistry::GetOrBuild(
    const nn::ModelMeta& meta, device::Device* device,
    const std::string& device_name, storage::TablePtr model_table,
    int vector_size) {
  const std::string key = MakeKey(meta.name, device_name);
  std::shared_ptr<Entry> entry;
  bool builder = false;
  {
    MutexLock lock(mu_);
    for (;;) {
      auto it = entries_.find(key);
      if (it == entries_.end()) break;
      entry = it->second;
      if (!entry->ready) {
        // Another thread is building this entry right now: single-flight —
        // wait for its outcome instead of building a duplicate.
        while (!entry->ready) build_done_.Wait(mu_);
        // Re-check from scratch: the build may have failed (entry removed)
        // or an invalidation may have raced in.
        entry.reset();
        continue;
      }
      if (entry->table != model_table) {
        // The catalog holds a different physical model table than the one
        // this model was built from: the model was re-deployed. Stale —
        // evict and rebuild.
        RegistryCounter("invalidations")->Increment();
        entries_.erase(it);
        entry.reset();
        break;
      }
      entry->last_used = ++use_tick_;
      RegistryCounter("hits")->Increment();
      return entry->model;
    }
    RegistryCounter("misses")->Increment();
    entry = std::make_shared<Entry>();
    entry->table = model_table;
    entry->last_used = ++use_tick_;
    entries_[key] = entry;
    EvictOverCapacityLocked();
    SetSizeGauge(static_cast<int64_t>(entries_.size()));
    builder = true;
  }
  INDBML_CHECK(builder);

  // Build outside the lock: concurrent queries over *other* models proceed;
  // queries over this model wait on the condvar above.
  Result<std::shared_ptr<SharedModel>> built = SharedModel::FromTable(
      meta, device, vector_size, *model_table, /*pool=*/nullptr);
  Status status = built.status();
  RegistryCounter("builds")->Increment();

  MutexLock lock(mu_);
  entry->status = status;
  entry->model = status.ok() ? std::move(built).ValueOrDie() : nullptr;
  entry->ready = true;
  if (!status.ok()) {
    // Failed builds are not cached: drop the entry (if it is still ours)
    // so the next query retries instead of inheriting the failure forever.
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second == entry) entries_.erase(it);
    SetSizeGauge(static_cast<int64_t>(entries_.size()));
  }
  build_done_.NotifyAll();
  if (!status.ok()) return status;
  return entry->model;
}

void SharedModelRegistry::InvalidateModel(const std::string& model_name) {
  MutexLock lock(mu_);
  const std::string prefix = model_name + "|";
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.rfind(prefix, 0) == 0 && it->second->ready) {
      RegistryCounter("invalidations")->Increment();
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  SetSizeGauge(static_cast<int64_t>(entries_.size()));
}

void SharedModelRegistry::Clear() {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second->ready) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  SetSizeGauge(static_cast<int64_t>(entries_.size()));
}

int64_t SharedModelRegistry::size() const {
  MutexLock lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

void SharedModelRegistry::set_capacity(int64_t capacity) {
  MutexLock lock(mu_);
  capacity_ = std::max<int64_t>(1, capacity);
}

void SharedModelRegistry::EvictOverCapacityLocked() {
  while (static_cast<int64_t>(entries_.size()) > capacity_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second->ready) continue;  // never evict an in-flight build
      if (victim == entries_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything is building
    RegistryCounter("evictions")->Increment();
    entries_.erase(victim);
  }
}

}  // namespace indbml::modeljoin
