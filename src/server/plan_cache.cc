#include "server/plan_cache.h"

#include <limits>
#include <utility>

#include "common/metrics.h"

namespace indbml::server {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Mix(uint64_t* h, uint64_t v) {
  // Hash every byte so adjacent small fields cannot alias.
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= kFnvPrime;
  }
}

}  // namespace

uint64_t OptionsFingerprint(const sql::OptimizerOptions& options) {
  uint64_t h = kFnvOffset;
  uint64_t flags = 0;
  flags = flags << 1 | (options.predicate_pushdown ? 1 : 0);
  flags = flags << 1 | (options.join_conversion ? 1 : 0);
  flags = flags << 1 | (options.projection_pruning ? 1 : 0);
  flags = flags << 1 | (options.ordered_aggregation ? 1 : 0);
  Mix(&h, flags);
  return h;
}

PlanCache::PlanCache(int64_t capacity) : capacity_(capacity) {}

std::string PlanCache::Encode(const Key& key) {
  return key.sql + "|" + std::to_string(key.options_fingerprint) + "|" +
         std::to_string(key.catalog_version);
}

std::shared_ptr<const sql::LogicalOp> PlanCache::Lookup(const Key& key) {
  metrics::Registry& registry = metrics::Registry::Global();
  MutexLock lock(mu_);
  auto it = entries_.find(Encode(key));
  if (it == entries_.end()) {
    registry.counter("server.plan_cache_misses")->Increment();
    return nullptr;
  }
  it->second.last_used = ++use_tick_;
  registry.counter("server.plan_cache_hits")->Increment();
  return it->second.plan;
}

void PlanCache::Insert(const Key& key,
                       std::shared_ptr<const sql::LogicalOp> plan) {
  if (capacity_ <= 0 || plan == nullptr) return;
  MutexLock lock(mu_);
  Entry& entry = entries_[Encode(key)];
  entry.plan = std::move(plan);
  entry.last_used = ++use_tick_;
  EvictOverCapacityLocked();
  metrics::Registry::Global()
      .gauge("server.plan_cache_size")
      ->Set(static_cast<int64_t>(entries_.size()));
}

void PlanCache::EvictOverCapacityLocked() {
  while (static_cast<int64_t>(entries_.size()) > capacity_) {
    auto lru = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) lru = it;
    }
    entries_.erase(lru);
    metrics::Registry::Global().counter("server.plan_cache_evictions")->Increment();
  }
}

void PlanCache::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  metrics::Registry::Global().gauge("server.plan_cache_size")->Set(0);
}

int64_t PlanCache::size() const {
  MutexLock lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

}  // namespace indbml::server
