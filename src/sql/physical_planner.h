#ifndef INDBML_SQL_PHYSICAL_PLANNER_H_
#define INDBML_SQL_PHYSICAL_PLANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/operator.h"
#include "exec/profile.h"
#include "sql/logical_plan.h"
#include "sql/optimizer.h"

namespace indbml::sql {

/// Inference-path knobs carried through the planner into the ModelJoin
/// operator factory. A plain struct (not inference::InferenceOptions): the
/// SQL layer sits below src/inference in the include layering, so the
/// modeljoin factory converts it at the boundary.
struct InferenceExecOptions {
  /// Cross-query coalescing window (µs) of the inference batcher; 0
  /// disables batching (engine default — the serving server turns it on).
  int64_t batch_window_us = 0;
  /// Row bound per coalesced inference launch.
  int64_t max_batch_rows = 4096;
  /// Memoize per-tuple predictions in the inference result cache.
  bool result_cache = false;
};

/// Everything the native ModelJoin operator implementation needs from the
/// planner for one worker's instance.
struct ModelJoinPhysicalArgs {
  exec::OperatorPtr child;
  /// Positions of the model input columns in the child's output chunk.
  std::vector<int> input_column_indexes;
  std::vector<std::string> prediction_names;
  /// The complete shared model of this ModelJoin node, read by every
  /// worker instance. Created once per query by the registered state
  /// factory during Prepare().
  std::shared_ptr<void> shared_state;
  /// Batching/cache knobs for this query (QueryEngine::Options::inference).
  InferenceExecOptions inference;
};

/// Everything the ModelJoin state factory needs to create (or look up) the
/// shared model of one ModelJoin node. The factory returns a complete
/// model: the build is a phase of its own that ends before any operator
/// instance exists.
struct ModelJoinStateArgs {
  nn::ModelMeta meta;
  std::string device;
  /// Pool the per-query build parses the model table on; nullptr parses
  /// serially on the calling thread. Ignored when `shared`: registry builds
  /// always run on the calling thread.
  ThreadPool* build_pool = nullptr;
  /// The deployed relational model representation (registry identity: a
  /// replaced model table invalidates the cached model).
  storage::TablePtr model_table;
  /// True = resolve through the process-wide SharedModelRegistry so
  /// concurrent queries over the same (model, device) build it once.
  /// False = the paper's per-query build (§5.2).
  bool shared = false;
};

/// Creates the per-query (or registry-shared, see ModelJoinStateArgs::shared)
/// state of the native ModelJoin.
using ModelJoinStateFactory =
    std::function<Result<std::shared_ptr<void>>(const ModelJoinStateArgs&)>;

/// Creates the per-worker native ModelJoin operator.
using ModelJoinOperatorFactory =
    std::function<Result<exec::OperatorPtr>(ModelJoinPhysicalArgs args)>;

/// \brief Lowers an optimized logical plan to per-worker operator trees.
///
/// Column references (binder ids) are rewritten to chunk positions. With
/// more than one worker, the scans of the partitioned table identified by
/// the PlanAnalysis are built morsel-bound (empty until the pipeline
/// executor assigns them a row range via Rewind). Every other scan, and
/// every scan of a one-worker plan, reads its full table.
class PhysicalPlanner {
 public:
  /// With a non-null `profile`, Prepare() registers every plan node in it
  /// and Instantiate() wraps each operator in an exec::ProfiledOperator
  /// writing that profile (EXPLAIN ANALYZE); nodes absorbed into a scan or
  /// a groupjoin report through the profile handles those operators get.
  /// The operator tree is the same with and without a profile; with null,
  /// plans execute with zero profiling overhead.
  PhysicalPlanner(const LogicalOp* plan, const PlanAnalysis& analysis,
                  int requested_workers, ModelJoinStateFactory state_factory,
                  ModelJoinOperatorFactory operator_factory,
                  exec::QueryProfile* profile = nullptr, bool shared_models = false,
                  InferenceExecOptions inference = {});

  /// Effective worker count (1 if the plan is not parallel-safe).
  int num_workers() const { return num_workers_; }

  /// The morsels the query schedules: MakeMorsels over the partitioned
  /// table, minus every morsel whose blocks the zone maps exclude for every
  /// morsel-bound scan (exec::CanPruneBlock). A dropped morsel could only
  /// produce zero rows, so the kept morsels (same boundaries, same order)
  /// yield the unpruned result bit for bit. A morsel-bound scan without
  /// pushed predicates reaches every morsel: the list is returned unfiltered
  /// without consulting a zone map. Counts exec.morsels (scheduled) and
  /// exec.morsels_pruned. Only meaningful for a plan of more than one worker.
  std::vector<storage::PartitionRange> Morsels(int64_t morsel_rows) const;

  /// Builds the operator tree for one worker. Thread-compatible: called
  /// concurrently for distinct workers after Prepare() succeeded.
  Result<exec::OperatorPtr> Instantiate(int worker);

  /// Creates shared state once; must be called before the first
  /// Instantiate. This is the query's ModelJoin build phase: each
  /// non-shared ModelJoin model is parsed on `build_pool` (serially when
  /// null) and recorded as modeljoin.build_micros and as the "build" phase
  /// of the node's worker-0 profile slot.
  Status Prepare(ThreadPool* build_pool);

 private:
  Result<exec::OperatorPtr> Build(const LogicalOp& node, int worker);
  Result<exec::OperatorPtr> BuildNode(const LogicalOp& node, int worker);
  /// Builds the [Project(column refs)] [Filter]* Scan chain rooted at `node`
  /// as one TableScanOperator. Returns nullptr (OK) when the chain does not
  /// qualify; the caller falls through to discrete operators. A Scan node
  /// always qualifies.
  Result<exec::OperatorPtr> TryBuildScan(const LogicalOp& node);
  /// The children and remapped key expressions of a hash join node.
  struct JoinInputs {
    exec::OperatorPtr probe;
    exec::OperatorPtr build;
    std::vector<exec::ExprPtr> probe_keys;
    std::vector<exec::ExprPtr> build_keys;
  };
  Result<JoinInputs> BuildJoinInputs(const LogicalOp& join, int worker);
  /// Fuses a streaming Aggregate directly over a HashJoin into one
  /// GroupJoinOperator when its sorted-prefix keys are probe columns and its
  /// other group keys build columns (every ML-To-SQL layer block). Returns
  /// nullptr (OK) otherwise. The join node keeps its profile slot.
  Result<exec::OperatorPtr> TryBuildGroupJoin(const LogicalOp& node, int worker);
  /// True if `scan` is built morsel-bound rather than over its full table.
  bool IsMorselBound(const LogicalOp& scan) const;
  void RegisterProfileNodes(const LogicalOp& node, int depth);

  const LogicalOp* plan_;
  PlanAnalysis analysis_;
  int num_workers_;
  bool shared_models_;
  InferenceExecOptions inference_;
  ModelJoinStateFactory state_factory_;
  ModelJoinOperatorFactory operator_factory_;
  exec::QueryProfile* profile_;
  /// Profile node ids per plan node (filled by Prepare when profiling).
  std::unordered_map<const LogicalOp*, int> profile_node_ids_;
  /// Shared states per ModelJoin node (keyed by node pointer).
  std::unordered_map<const LogicalOp*, std::shared_ptr<void>> modeljoin_states_;
};

}  // namespace indbml::sql

#endif  // INDBML_SQL_PHYSICAL_PLANNER_H_
