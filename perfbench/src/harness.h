#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "exec/operator.h"

namespace perfbench {

/// Relative tolerance of a prediction against the nn::Model::Predict
/// reference: |got - want| <= kTolerance * (1 + |want|). Checksums use the
/// same bound over the sum of |want|.
inline constexpr double kTolerance = 1e-4;

/// Fewest queries a timed phase attempts, so that when none fails the tail
/// rule (stats.h) has kTailBeyond samples beyond its percentile.
inline constexpr int64_t kMinQueries = 11;

/// Wall-time samples per benchmark-owned span name ("sql.plan",
/// "server.submit", ...). Not thread-safe: each client thread fills its own
/// and the phase merges them.
class LayerTimes {
 public:
  void Add(const std::string& name, double micros);
  void Merge(const LayerTimes& other);
  /// Mean duration of `name` in µs; 0 when it never ran.
  double MeanMicros(const std::string& name) const;

 private:
  struct Sum {
    double micros = 0;
    int64_t count = 0;
  };
  std::map<std::string, Sum> sums_;
};

/// \brief Times one call into a layer from outside: a trace span (recorded
/// only while trace::Start() is in effect) plus a wall-time sample in
/// `times`.
class LayerCall {
 public:
  LayerCall(const char* name, LayerTimes* times)
      : span_(name), name_(name), times_(times) {}
  ~LayerCall() { times_->Add(name_, static_cast<double>(watch_.ElapsedNanos()) / 1e3); }

  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

 private:
  indbml::trace::Span span_;
  const char* name_;
  LayerTimes* times_;
  indbml::Stopwatch watch_;
};

/// One completed query.
struct QueryRecord {
  int kind = 0;
  double latency_ms = 0;
  double done_s = 0;  ///< completion time since the phase started
  int64_t rows = 0;   ///< fact tuples scored
};

/// Everything one timed closed-loop phase measured.
struct Phase {
  indbml::Stopwatch clock;  ///< restarted when the loop starts
  std::vector<QueryRecord> queries;  ///< in completion order
  int64_t attempted = 0;
  int64_t failed = 0;  ///< error status, admission reject or wrong result
  double wall_s = 0;
  double cpu_s = 0;           ///< process user + system CPU seconds
  int64_t peak_bytes = 0;     ///< tracked-memory peak during the loop
  int64_t baseline_bytes = 0; ///< tracked memory when the loop started
  LayerTimes times;
  std::map<std::string, int64_t> counters;  ///< metrics::Registry deltas

  /// Records a completed query at the current phase clock.
  void Complete(int kind, double latency_ms, int64_t rows) {
    queries.push_back({kind, latency_ms, clock.ElapsedSeconds(), rows});
  }
  /// Folds the MemoryTracker peak since its last reset into peak_bytes.
  void NotePeak();
  int64_t Counter(const std::string& name) const;
  /// Completed queries of `kind`; all completed queries for kind < 0.
  int64_t Queries(int kind = -1) const;
  int64_t Rows() const;
  std::vector<double> Latencies(int kind = -1) const;
  /// Median over consecutive rounds of `per_round` completed queries of the
  /// round's rows (or queries) per second. A median over many rounds holds
  /// still when the host slows down for a moment.
  double MedianRoundRate(int64_t per_round, bool count_rows) const;
};

/// Exact row counts and operator self time of one profiled query.
struct ProfileCounts {
  int64_t queries = 0;
  int64_t join_rows = 0;        ///< rows produced by HashJoin/CrossJoin nodes
  int64_t join_self_nanos = 0;  ///< join self time, summed over workers
  int64_t aggregate_input_rows = 0;
};

/// \brief One benchmark workload: a seeded closed loop over the engine.
///
/// Construction plus SetUp() is the timed set-up. PrepareChecks() computes
/// reference predictions once, untimed. Loop() runs queries until `seconds`
/// passed (and at least kMinQueries completed), checking results as it
/// goes; FinishChecks() runs the checks deferred past the timed loop and
/// returns the number of queries found wrong.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual indbml::Status SetUp() = 0;
  virtual indbml::Status PrepareChecks() = 0;
  virtual indbml::Status Loop(double seconds, Phase* phase) = 0;
  virtual int64_t FinishChecks() { return 0; }
  /// Query kind names, indexed by QueryRecord::kind.
  virtual std::vector<std::string> KindNames() const = 0;
  /// Completed queries per round of Phase::MedianRoundRate.
  virtual int64_t RoundQueries() const = 0;
  /// True if queries of `kind` run through a ModelJoin.
  virtual bool IsModelJoinKind(int kind) const = 0;
  /// Traced run only: layer timings that are not part of the closed loop
  /// (planning cost behind a plan cache) go into `times`.
  virtual indbml::Status MeasureOutOfBand(LayerTimes* /*times*/) {
    return indbml::Status::OK();
  }
  /// One profiled query per kind that runs through the SQL engine.
  virtual indbml::Status Profile(ProfileCounts* counts) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
std::vector<std::string> WorkloadNames();

/// Sum of every column whose name starts with "prediction".
double PredictionChecksum(const indbml::exec::QueryResult& result);

/// True if |got - want| is within kTolerance of `scale` (1 + |want| for one
/// prediction, 1 + sum |want| for a checksum).
inline bool WithinTolerance(double got, double want, double scale) {
  const double diff = got > want ? got - want : want - got;
  return diff <= kTolerance * scale;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
