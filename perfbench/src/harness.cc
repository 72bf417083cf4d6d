#include "harness.h"

#include <algorithm>

#include "common/memory_tracker.h"
#include "stats.h"

namespace perfbench {

void LayerTimes::Add(const std::string& name, double micros) {
  Sum& sum = sums_[name];
  sum.micros += micros;
  ++sum.count;
}

void LayerTimes::Merge(const LayerTimes& other) {
  for (const auto& [name, sum] : other.sums_) {
    Sum& mine = sums_[name];
    mine.micros += sum.micros;
    mine.count += sum.count;
  }
}

double LayerTimes::MeanMicros(const std::string& name) const {
  auto it = sums_.find(name);
  if (it == sums_.end() || it->second.count == 0) return 0;
  return it->second.micros / static_cast<double>(it->second.count);
}

void Phase::NotePeak() {
  peak_bytes = std::max(peak_bytes, indbml::MemoryTracker::Global().peak_bytes());
}

int64_t Phase::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

int64_t Phase::Queries(int kind) const {
  if (kind < 0) return static_cast<int64_t>(queries.size());
  return std::count_if(queries.begin(), queries.end(),
                       [kind](const QueryRecord& q) { return q.kind == kind; });
}

int64_t Phase::Rows() const {
  int64_t rows = 0;
  for (const QueryRecord& q : queries) rows += q.rows;
  return rows;
}

std::vector<double> Phase::Latencies(int kind) const {
  std::vector<double> out;
  for (const QueryRecord& q : queries) {
    if (kind < 0 || q.kind == kind) out.push_back(q.latency_ms);
  }
  return out;
}

double Phase::MedianRoundRate(int64_t per_round, bool count_rows) const {
  const size_t k = static_cast<size_t>(std::max<int64_t>(1, per_round));
  std::vector<double> rates;
  double start = 0;
  for (size_t end = k; end <= queries.size(); end += k) {
    double work = 0;
    for (size_t i = end - k; i < end; ++i) {
      work += count_rows ? static_cast<double>(queries[i].rows) : 1.0;
    }
    const double done = queries[end - 1].done_s;
    if (done > start) rates.push_back(work / (done - start));
    start = done;
  }
  return Median(rates);
}

double PredictionChecksum(const indbml::exec::QueryResult& result) {
  double sum = 0;
  for (size_t c = 0; c < result.names.size(); ++c) {
    if (result.names[c].rfind("prediction", 0) != 0) continue;
    for (const indbml::exec::DataChunk& chunk : result.chunks) {
      const indbml::exec::Vector& col = chunk.column(static_cast<int64_t>(c));
      for (int64_t r = 0; r < col.size(); ++r) sum += col.GetFloatAt(r);
    }
  }
  return sum;
}

}  // namespace perfbench
