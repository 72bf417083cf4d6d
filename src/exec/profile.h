#ifndef INDBML_EXEC_PROFILE_H_
#define INDBML_EXEC_PROFILE_H_

#include <map>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace indbml::exec {

/// \brief EXPLAIN ANALYZE statistics of one operator instance (one plan
/// node in one worker).
///
/// Durations are nanoseconds (worker-level slices of small queries are
/// well below a microsecond) and cumulative: an operator's `next_nanos`
/// includes the time its children spent producing input, exactly like the
/// per-node times of PostgreSQL's EXPLAIN ANALYZE.
struct OperatorStats {
  int64_t rows = 0;
  int64_t chunks = 0;
  int64_t open_nanos = 0;
  int64_t next_nanos = 0;
  int64_t close_nanos = 0;
  /// Time spent re-arming the operator between morsels (morsel-driven
  /// execution only; zero under the static/serial paths).
  int64_t rewind_nanos = 0;
  /// Named sub-phase timings recorded by the operator body itself, e.g.
  /// the ModelJoin's "build"/"inference"/"convert" split (paper §5.2/§5.3)
  /// or the C-API runtime's "convert"/"run" split (§6.1).
  std::map<std::string, int64_t> phase_nanos;

  void AddPhase(const std::string& name, int64_t nanos) {
    phase_nanos[name] += nanos;
  }
  void MergeFrom(const OperatorStats& other);
};

/// Steady-clock time in nanoseconds: the clock of every profile duration.
int64_t NowNanos();

/// \brief Adds the wall time of its scope to `*nanos`; does nothing when
/// `nanos` is null (the query is not profiled).
class ScopedNanos {
 public:
  explicit ScopedNanos(int64_t* nanos)
      : nanos_(nanos), start_(nanos != nullptr ? NowNanos() : 0) {}
  ~ScopedNanos() {
    if (nanos_ != nullptr) *nanos_ += NowNanos() - start_;
  }

  ScopedNanos(const ScopedNanos&) = delete;
  ScopedNanos& operator=(const ScopedNanos&) = delete;

 private:
  int64_t* nanos_;
  int64_t start_;
};

/// \brief Per-query profile: one OperatorStats slot per (plan node,
/// worker).
///
/// Life cycle: the physical planner registers every plan node pre-order
/// (RegisterNode) and sizes the slot matrix (SetNumWorkers); during
/// execution each worker's ProfiledOperator wrappers write their own
/// slot, so the hot path is unsynchronised; afterwards ToString() renders
/// the annotated plan tree with worker-aggregated stats.
class QueryProfile {
 public:
  /// Registers a plan node (pre-order); returns its node id.
  int RegisterNode(std::string label, int depth);
  /// Allocates the per-worker slots; call after all RegisterNode calls.
  void SetNumWorkers(int n);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_workers() const { return num_workers_; }
  const std::string& node_label(int node) const { return nodes_[node].label; }

  OperatorStats* slot(int node, int worker) {
    return &slots_[static_cast<size_t>(node) * static_cast<size_t>(num_workers_) +
                   static_cast<size_t>(worker)];
  }

  /// Node stats summed over all workers.
  OperatorStats Aggregate(int node) const;

  void set_wall_nanos(int64_t nanos) { wall_nanos_ = nanos; }
  int64_t wall_nanos() const { return wall_nanos_; }
  /// Peak tracked allocation during the query (memory_tracker.h).
  void set_peak_memory_bytes(int64_t bytes) { peak_memory_bytes_ = bytes; }
  int64_t peak_memory_bytes() const { return peak_memory_bytes_; }

  /// The annotated plan tree ("EXPLAIN ANALYZE" rendering).
  std::string ToString() const;

 private:
  struct Node {
    std::string label;
    int depth;
  };
  std::vector<Node> nodes_;
  int num_workers_ = 0;
  std::vector<OperatorStats> slots_;  ///< [node * num_workers + worker]
  int64_t wall_nanos_ = 0;
  int64_t peak_memory_bytes_ = -1;
};

/// \brief Profiling decorator around any Operator: times Open/Next/Close,
/// counts rows and chunks, and exposes its stats slot through
/// `ExecContext::active_stats` while a call is in flight so the wrapped
/// operator can add named phase timings. Only instantiated when a profile
/// was requested — unprofiled execution pays nothing.
class ProfiledOperator final : public Operator {
 public:
  ProfiledOperator(OperatorPtr inner, QueryProfile* profile, int node_id)
      : inner_(std::move(inner)), profile_(profile), node_id_(node_id) {}

  const std::vector<DataType>& output_types() const override {
    return inner_->output_types();
  }
  const std::vector<std::string>& output_names() const override {
    return inner_->output_names();
  }

  Status Open(ExecContext* ctx) override;
  Status Next(ExecContext* ctx, DataChunk* out, bool* eof) override;
  void Close(ExecContext* ctx) override;
  Status Rewind(ExecContext* ctx) override;
  bool MorselDriven() const override { return inner_->MorselDriven(); }

 private:
  OperatorPtr inner_;
  QueryProfile* profile_;
  int node_id_;
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_PROFILE_H_
