#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"

namespace perfbench {

using indbml::Random;
using indbml::storage::DataType;
using indbml::storage::Field;

namespace {

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<int64_t> Permutation(int64_t n, Random* rng) {
  std::vector<int64_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), int64_t{0});
  for (int64_t i = n - 1; i > 0; --i) {
    int64_t j = static_cast<int64_t>(rng->NextUint64(static_cast<uint64_t>(i + 1)));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  return perm;
}

}  // namespace

std::vector<std::string> FeatureNames(int features, const std::string& prefix) {
  std::vector<std::string> names;
  for (int f = 0; f < features; ++f) names.push_back(prefix + std::to_string(f));
  return names;
}

indbml::storage::TablePtr MakeUniqueFactTable(const std::string& name, int64_t rows,
                                              int features, const std::string& prefix,
                                              uint64_t seed) {
  INDBML_CHECK(rows > 0 && rows <= kMaxFactRows) << "fact rows out of range";
  INDBML_CHECK(features >= 1) << "a fact table needs a feature column";
  std::vector<Field> fields{{"id", DataType::kInt64}};
  for (const std::string& f : FeatureNames(features, prefix)) {
    fields.push_back({f, DataType::kFloat});
  }
  auto table = std::make_shared<indbml::storage::Table>(name, fields);
  table->Reserve(rows);

  Random rng(seed);
  const std::vector<int64_t> perm = Permutation(rows, &rng);
  int shift = 0;
  while ((int64_t{1} << shift) < rows) ++shift;
  const float scale = 1.0f / static_cast<float>(int64_t{1} << shift);

  indbml::storage::Column& id = table->column(0);
  indbml::storage::Column& key = table->column(1);
  for (int64_t i = 0; i < rows; ++i) {
    id.AppendInt64(i);
    // (k + 0.5) * 2^-shift is exact for k < 2^23, so distinct keys stay
    // distinct floats.
    key.AppendFloat((static_cast<float>(perm[static_cast<size_t>(i)]) + 0.5f) * scale);
  }
  for (int f = 1; f < features; ++f) {
    indbml::storage::Column& col = table->column(1 + f);
    for (int64_t i = 0; i < rows; ++i) col.AppendFloat(rng.NextFloat(-1.0f, 1.0f));
  }
  table->Finalize();
  table->SetUniqueIdColumn("id");
  table->SetSortedBy({"id"});
  return table;
}

ZipfEntitySampler::ZipfEntitySampler(int64_t entities, double s, uint64_t seed) {
  INDBML_CHECK(entities > 0) << "Zipf sampler needs entities";
  cdf_.resize(static_cast<size_t>(entities));
  double total = 0;
  for (int64_t r = 0; r < entities; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
  Random rng(seed);
  entity_of_rank_ = Permutation(entities, &rng);
}

int64_t ZipfEntitySampler::Next(Random* rng) const {
  const double u = rng->NextDouble();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  int64_t rank = std::min<int64_t>(it - cdf_.begin(), entities() - 1);
  return EntityOfRank(rank);
}

std::string EntityQuerySql(const std::string& fact_table,
                           const std::vector<std::string>& features,
                           const std::string& model_table,
                           const std::string& model_name, int64_t lo, int64_t hi) {
  const std::string cols = indbml::Join(features, ", ");
  return "SELECT id, prediction FROM (SELECT id, " + cols + " FROM " + fact_table +
         " WHERE id >= " + std::to_string(lo) + " AND id < " + std::to_string(hi) +
         ") AS q MODEL JOIN " + model_table + " USING MODEL '" + model_name +
         "' DEVICE 'cpu' PREDICT (" + cols + ")";
}

std::string ModelJoinSql(const std::string& fact_table,
                         const std::vector<std::string>& features,
                         const std::string& model_table,
                         const std::string& model_name) {
  return "SELECT id, prediction FROM " + fact_table + " MODEL JOIN " + model_table +
         " USING MODEL '" + model_name + "' DEVICE 'cpu' PREDICT (" +
         indbml::Join(features, ", ") + ")";
}

}  // namespace perfbench
