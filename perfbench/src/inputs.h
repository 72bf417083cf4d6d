#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/table.h"

namespace perfbench {

/// \file Seeded inputs of the benchmark workloads. Everything the engine
/// sees is generated here from the `--seed` argument: fact tables and, for
/// the serving workload, the SQL text of every query.

/// Largest fact table MakeUniqueFactTable can build while keeping every
/// tuple unique (the key feature is exact in a float's 24-bit mantissa).
inline constexpr int64_t kMaxFactRows = int64_t{1} << 23;

/// Builds `name(id BIGINT, <prefix>0 .. <prefix>{features-1} FLOAT)` with
/// `rows` rows, sorted by and unique on `id` (= row number). Every feature
/// tuple is distinct: feature 0 is (perm[i] + 0.5) / 2^k for a seeded
/// permutation `perm` of the row numbers, exact in float, so no two rows
/// share it; the other features are seeded uniform values in [-1, 1). This
/// replaces tiled inputs whose repeats turn a result cache into ~100% hits.
indbml::storage::TablePtr MakeUniqueFactTable(const std::string& name, int64_t rows,
                                      int features, const std::string& prefix,
                                      uint64_t seed);

/// Names of the feature columns MakeUniqueFactTable creates.
std::vector<std::string> FeatureNames(int features, const std::string& prefix);

/// \brief Zipf(s) popularity over `entities` entities with a seeded
/// rank → entity permutation, so how hot an entity is says nothing about
/// where its rows sit in the table.
///
/// The table is immutable after construction and shared by all client
/// threads; each thread draws with its own Random.
class ZipfEntitySampler {
 public:
  ZipfEntitySampler(int64_t entities, double s, uint64_t seed);

  /// Draws one entity id in [0, entities).
  int64_t Next(indbml::Random* rng) const;

  /// Entity id of popularity rank `rank` (0 = hottest).
  int64_t EntityOfRank(int64_t rank) const {
    return entity_of_rank_[static_cast<size_t>(rank)];
  }
  int64_t entities() const { return static_cast<int64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;  ///< cdf_[r] = P(rank <= r)
  std::vector<int64_t> entity_of_rank_;
};

/// The serving query for one entity: the ids [lo, hi) scored by the model
/// `model_name` deployed as `model_table`. The filter sits in a subquery
/// because the optimizer does not push a predicate through MODEL JOIN.
std::string EntityQuerySql(const std::string& fact_table,
                           const std::vector<std::string>& features,
                           const std::string& model_table,
                           const std::string& model_name, int64_t lo, int64_t hi);

/// SELECT id, prediction over a whole fact table through MODEL JOIN.
std::string ModelJoinSql(const std::string& fact_table,
                         const std::vector<std::string>& features,
                         const std::string& model_table,
                         const std::string& model_name);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
