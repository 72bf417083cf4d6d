#ifndef INDBML_INFERENCE_CACHE_H_
#define INDBML_INFERENCE_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace indbml::inference {

/// \brief Memoizing inference result cache: hot-entity repeat traffic skips
/// the NN entirely (ISSUE 10 layer 3).
///
/// Each model instance (the process-unique SharedModel::model_id(), so a
/// redeployed model gets a new id and can never serve a stale cached
/// prediction) owns one flat, set-associative table in a single contiguous
/// allocation. A set holds kWays fixed-width slots: the tuple's `d` input
/// floats, its `o` prediction floats, and per slot one tag byte of the key
/// hash plus one reference bit. Keys compare byte-exact (memcmp of the float
/// bits: -0.0 and 0.0, or two NaN payloads, are distinct keys); the hash
/// only picks the set and the tag. Eviction is CLOCK (second chance) inside
/// a set: a hit sets the slot's reference bit, a new entry starts without
/// it, and the victim is the first way past the set's hand whose bit is
/// clear. Correctness leans on the runtime's determinism: a cached value is
/// bit-identical to re-running the forward pass.
///
/// `capacity_bytes` bounds the bytes the tables really allocate, summed over
/// models. A table starts sized for its first batch at half load and
/// doubles (re-inserting its entries) whenever a set overflows, up to its
/// model's equal share of the capacity; only a table at its share evicts.
/// A per-query model thus allocates in proportion to the rows it inserts.
/// Only when a table's growth would pass the bound are the tables above
/// the new share shrunk to it, keeping the entries that still fit. A share
/// freed by an invalidation is taken back by the survivors' next growth,
/// so InvalidateModel stays O(1).
///
/// Thread safe; Lookup/Insert take whole batches so a 1024-row chunk costs
/// one lock round-trip for its probes, not 1024. Key gathering, hashing and
/// the prefetch of the probed sets happen before the lock is taken.
class InferenceCache {
 public:
  /// The process-wide cache.
  static InferenceCache& Global();

  InferenceCache();
  ~InferenceCache();

  InferenceCache(const InferenceCache&) = delete;
  InferenceCache& operator=(const InferenceCache&) = delete;

  /// Bound on the bytes the cache allocates, over all models. Lowering it
  /// below the bytes held shrinks the tables to equal shares; 0 disables
  /// the cache (Lookup misses, Insert drops) and frees every table.
  void set_capacity_bytes(int64_t bytes) INDBML_EXCLUDES(mu_);
  int64_t capacity_bytes() const INDBML_EXCLUDES(mu_);

  /// Looks up the `n` input tuples of the feature-major matrix `in`
  /// ([d x n]: row f holds feature f of every tuple). For each hit row j,
  /// writes the cached prediction into column j of `out` ([o x n]) and sets
  /// (*hits)[j] = 1; `hits` must arrive sized n and zeroed. Returns the hit
  /// count and records the hit/miss metrics.
  int64_t Lookup(int64_t model_id, const float* in, int64_t n, int64_t d,
                 int64_t o, float* out, std::vector<char>* hits)
      INDBML_EXCLUDES(mu_);

  /// Inserts the `n` tuples of `in` ([d x n]) with their predictions from
  /// `results` ([o x n]). An existing entry gets its reference bit set; the
  /// deterministic runtime guarantees its value is unchanged.
  void Insert(int64_t model_id, const float* in, int64_t n, int64_t d,
              int64_t o, const float* results) INDBML_EXCLUDES(mu_);

  /// Drops this model instance's table in O(1). ~SharedModel calls it, so
  /// a table lives no longer than the model instance it caches.
  void InvalidateModel(int64_t model_id) INDBML_EXCLUDES(mu_);

  /// Drops everything (tests and benchmarks).
  void Clear() INDBML_EXCLUDES(mu_);

  struct Stats {
    int64_t entries = 0;
    /// Bytes the tables allocate: slot storage plus table headers.
    int64_t bytes = 0;
    /// Model instances holding a table.
    int64_t tables = 0;
  };
  Stats GetStats() const INDBML_EXCLUDES(mu_);

 private:
  class Table;
  using TableMap = std::unordered_map<int64_t, std::shared_ptr<Table>>;

  /// The table of `model_id` if it exists and has this shape, else null.
  std::shared_ptr<Table> FindLocked(int64_t model_id, int64_t d, int64_t o) const
      INDBML_REQUIRES(mu_);
  /// The table of `model_id`, created or grown first to at least
  /// `min_sets` sets (and at least twice its size) but not past the
  /// model's equal share of the capacity. Unchanged when it already has
  /// `min_sets` or sits at its share; null when a new table cannot hold
  /// one set.
  std::shared_ptr<Table> GrowLocked(int64_t model_id, int64_t d, int64_t o,
                                    int64_t min_sets) INDBML_REQUIRES(mu_);
  /// Rebuilds every table but `keep`'s that holds more than `share` bytes
  /// at that size, keeping the entries that still fit; a table too small
  /// for one set is dropped.
  void ShrinkLocked(int64_t share, int64_t keep) INDBML_REQUIRES(mu_);
  /// Drops one table and its bytes; returns the next entry.
  TableMap::iterator EraseLocked(TableMap::iterator it) INDBML_REQUIRES(mu_);

  mutable Mutex mu_;
  TableMap tables_ INDBML_GUARDED_BY(mu_);
  int64_t bytes_ INDBML_GUARDED_BY(mu_) = 0;
  int64_t capacity_bytes_ INDBML_GUARDED_BY(mu_) = 32 << 20;

  metrics::Counter* hits_metric_;    ///< inference.cache_hits
  metrics::Counter* misses_metric_;  ///< inference.cache_misses
};

}  // namespace indbml::inference

#endif  // INDBML_INFERENCE_CACHE_H_
