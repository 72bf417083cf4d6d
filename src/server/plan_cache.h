#ifndef INDBML_SERVER_PLAN_CACHE_H_
#define INDBML_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sql/logical_plan.h"
#include "sql/query_engine.h"

namespace indbml::server {

/// FNV-1a over the optimizer options, the only engine options planning
/// reads (QueryEngine::PlanQuery): sessions with different optimizer
/// settings never share a cached plan, while sessions that differ only in
/// execution settings (workers, morsels, model sharing, inference) do.
uint64_t OptionsFingerprint(const sql::OptimizerOptions& options);

/// \brief Process-wide prepared-statement cache.
///
/// Maps (SQL text, options fingerprint, catalog version) to the optimized
/// logical plan, so repeated queries skip parse/bind/optimize entirely. The
/// catalog version is part of the key: any CREATE/REPLACE/DROP bumps it and
/// naturally invalidates every cached plan (stale entries age out of the
/// LRU). Cached plans are immutable (`const LogicalOp`) and shared — the
/// PhysicalPlanner only reads the logical tree, so any number of concurrent
/// sessions can lower the same cached plan.
///
/// Metrics: server.plan_cache_hits / _misses / _evictions counters and the
/// server.plan_cache_size gauge.
class PlanCache {
 public:
  struct Key {
    std::string sql;
    uint64_t options_fingerprint = 0;
    int64_t catalog_version = 0;
  };

  explicit PlanCache(int64_t capacity);

  /// The cached plan, or nullptr on miss.
  std::shared_ptr<const sql::LogicalOp> Lookup(const Key& key)
      INDBML_EXCLUDES(mu_);

  /// Caches `plan` (last writer wins on a racing double-plan; both plans
  /// are equivalent). Evicts least-recently-used entries over capacity.
  void Insert(const Key& key, std::shared_ptr<const sql::LogicalOp> plan)
      INDBML_EXCLUDES(mu_);

  void Clear() INDBML_EXCLUDES(mu_);
  int64_t size() const INDBML_EXCLUDES(mu_);
  int64_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_ptr<const sql::LogicalOp> plan;
    int64_t last_used = 0;
  };

  static std::string Encode(const Key& key);
  void EvictOverCapacityLocked() INDBML_REQUIRES(mu_);

  const int64_t capacity_;
  mutable Mutex mu_;
  int64_t use_tick_ INDBML_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::string, Entry> entries_ INDBML_GUARDED_BY(mu_);
};

}  // namespace indbml::server

#endif  // INDBML_SERVER_PLAN_CACHE_H_
