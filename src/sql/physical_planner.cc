#include "sql/physical_planner.h"

#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/validation.h"
#include "exec/aggregate.h"
#include "exec/basic_operators.h"
#include "exec/groupjoin.h"
#include "exec/join.h"
#include "exec/morsel.h"
#include "exec/scan.h"
#include "exec/validate.h"

namespace indbml::sql {

using exec::ExprPtr;
using exec::OperatorPtr;

namespace {

/// Mapping from binder column ids to chunk positions of an operator output.
std::unordered_map<int64_t, int64_t> PositionMap(const std::vector<BoundColumn>& cols,
                                                 int64_t offset = 0) {
  std::unordered_map<int64_t, int64_t> map;
  for (size_t i = 0; i < cols.size(); ++i) {
    map[cols[i].id] = offset + static_cast<int64_t>(i);
  }
  return map;
}

Result<ExprPtr> Remap(const exec::Expr& expr,
                      const std::unordered_map<int64_t, int64_t>& mapping) {
  ExprPtr clone = exec::CloneExpr(expr);
  if (!exec::RemapColumnIds(clone.get(), mapping)) {
    return Status::Internal("expression references a column missing from the child: " +
                            expr.ToString());
  }
  return clone;
}

/// Division and modulo can fail per row (divide by zero). The scan
/// evaluates residual conditions over all window rows, not just prior
/// survivors, so only conditions that cannot fail row-wise are absorbed.
bool ExprHasDivOrMod(const exec::Expr& e) {
  if (e.kind == exec::ExprKind::kBinary &&
      (e.bin_op == exec::BinaryOp::kDiv || e.bin_op == exec::BinaryOp::kMod)) {
    return true;
  }
  for (const auto& c : e.children) {
    if (ExprHasDivOrMod(*c)) return true;
  }
  return false;
}

/// The aggregates of `node` with their arguments remapped through `mapping`.
Result<std::vector<exec::AggregateSpec>> RemapAggregates(
    const LogicalOp& node, const std::unordered_map<int64_t, int64_t>& mapping) {
  std::vector<exec::AggregateSpec> aggs;
  for (const auto& a : node.aggregates) {
    exec::AggregateSpec spec;
    spec.function = a.function;
    spec.result_type = a.result_type;
    spec.name = a.name;
    if (a.argument) {
      INDBML_ASSIGN_OR_RETURN(spec.argument, Remap(*a.argument, mapping));
    }
    aggs.push_back(std::move(spec));
  }
  return aggs;
}

}  // namespace

PhysicalPlanner::PhysicalPlanner(const LogicalOp* plan, const PlanAnalysis& analysis,
                                 int requested_workers,
                                 ModelJoinStateFactory state_factory,
                                 ModelJoinOperatorFactory operator_factory,
                                 exec::QueryProfile* profile, bool shared_models,
                                 InferenceExecOptions inference)
    : plan_(plan),
      analysis_(analysis),
      num_workers_(analysis.parallel_safe ? std::max(1, requested_workers) : 1),
      shared_models_(shared_models),
      inference_(inference),
      state_factory_(std::move(state_factory)),
      operator_factory_(std::move(operator_factory)),
      profile_(profile) {}

void PhysicalPlanner::RegisterProfileNodes(const LogicalOp& node, int depth) {
  profile_node_ids_[&node] = profile_->RegisterNode(node.NodeString(), depth);
  for (const auto& child : node.children) {
    RegisterProfileNodes(*child, depth + 1);
  }
}

Status PhysicalPlanner::Prepare(ThreadPool* build_pool) {
  if (profile_ != nullptr) {
    RegisterProfileNodes(*plan_, 0);
    profile_->SetNumWorkers(num_workers_);
  }
  // Create shared ModelJoin state once per ModelJoin node, one node at a
  // time; a per-query build parses its model table on `build_pool`.
  struct Visitor {
    PhysicalPlanner* planner;
    ThreadPool* build_pool;
    Status Visit(const LogicalOp& node) {
      for (const auto& child : node.children) {
        INDBML_RETURN_NOT_OK(Visit(*child));
      }
      if (node.kind == LogicalKind::kModelJoin) {
        if (planner->state_factory_ == nullptr) {
          return Status::NotImplemented(
              "no native ModelJoin implementation registered with this engine");
        }
        ModelJoinStateArgs state_args;
        state_args.meta = node.modeljoin.meta;
        state_args.device = node.modeljoin.device;
        state_args.build_pool = build_pool;
        state_args.model_table = node.modeljoin.model_table;
        state_args.shared = planner->shared_models_;
        Stopwatch build_watch;
        INDBML_ASSIGN_OR_RETURN(auto state,
                                planner->state_factory_(state_args));
        if (!planner->shared_models_) {
          const int64_t nanos = build_watch.ElapsedNanos();
          metrics::Registry::Global()
              .histogram("modeljoin.build_micros")
              ->Record(nanos / 1000);
          if (planner->profile_ != nullptr) {
            planner->profile_->slot(planner->profile_node_ids_.at(&node), 0)
                ->AddPhase("build", nanos);
          }
        }
        planner->modeljoin_states_[&node] = std::move(state);
      }
      return Status::OK();
    }
  };
  Visitor visitor{this, build_pool};
  return visitor.Visit(*plan_);
}

Result<OperatorPtr> PhysicalPlanner::Instantiate(int worker) {
  return Build(*plan_, worker);
}

Result<OperatorPtr> PhysicalPlanner::Build(const LogicalOp& node, int worker) {
  INDBML_ASSIGN_OR_RETURN(auto op, BuildNode(node, worker));
  if (validation::Enabled()) {
    // Model predictions may legitimately be non-finite; every other
    // operator emitting a NaN is propagating a corrupted intermediate.
    bool allow_non_finite = node.kind == LogicalKind::kModelJoin;
    op = std::make_unique<exec::ValidatingOperator>(
        std::move(op), node.NodeString(), allow_non_finite);
  }
  if (profile_ != nullptr) {
    op = std::make_unique<exec::ProfiledOperator>(std::move(op), profile_,
                                                  profile_node_ids_.at(&node));
  }
  return op;
}

bool PhysicalPlanner::IsMorselBound(const LogicalOp& scan) const {
  return num_workers_ > 1 && scan.table.get() == analysis_.partitioned_table;
}

std::vector<storage::PartitionRange> PhysicalPlanner::Morsels(
    int64_t morsel_rows) const {
  static metrics::Counter* const scheduled =
      metrics::Registry::Global().counter("exec.morsels");
  static metrics::Counter* const pruned =
      metrics::Registry::Global().counter("exec.morsels_pruned");
  const storage::Table& table = *analysis_.partitioned_table;
  std::vector<storage::PartitionRange> morsels = exec::MakeMorsels(table, morsel_rows);

  // The pushed predicates of every morsel-bound scan, or none at all when
  // one of them has no predicate (it reads every morsel).
  std::vector<const std::vector<exec::ScanPredicate>*> scans;
  bool prunable = true;
  std::vector<const LogicalOp*> stack = {plan_};
  while (!stack.empty() && prunable) {
    const LogicalOp* node = stack.back();
    stack.pop_back();
    if (node->kind == LogicalKind::kScan && IsMorselBound(*node)) {
      prunable = !node->pushed.empty();
      scans.push_back(&node->pushed);
    }
    for (const auto& child : node->children) stack.push_back(child.get());
  }

  const size_t made = morsels.size();
  if (prunable && !scans.empty()) {
    const int64_t rows_per_block = table.rows_per_block();
    std::erase_if(morsels, [&](const storage::PartitionRange& m) {
      for (const auto* predicates : scans) {
        for (int64_t b = m.begin / rows_per_block; b * rows_per_block < m.end; ++b) {
          if (!exec::CanPruneBlock(table, *predicates, b)) return false;
        }
      }
      return true;  // every block of every scan is excluded
    });
  }
  scheduled->Increment(static_cast<int64_t>(morsels.size()));
  pruned->Increment(static_cast<int64_t>(made - morsels.size()));
  return morsels;
}

Result<OperatorPtr> PhysicalPlanner::TryBuildScan(const LogicalOp& node) {
  const LogicalOp* cur = &node;
  const LogicalOp* project = nullptr;
  if (cur->kind == LogicalKind::kProject) {
    // Only pure column-selection projects are absorbed; computed
    // expressions keep the discrete ProjectOperator.
    for (const auto& e : cur->exprs) {
      if (e->kind != exec::ExprKind::kColumnRef) return OperatorPtr();
    }
    project = cur;
    cur = cur->children[0].get();
  }
  std::vector<const LogicalOp*> filters;  // chain root first
  while (cur->kind == LogicalKind::kFilter) {
    if (ExprHasDivOrMod(*cur->condition)) return OperatorPtr();
    filters.push_back(cur);
    cur = cur->children[0].get();
  }
  if (cur->kind != LogicalKind::kScan) return OperatorPtr();
  const LogicalOp& scan = *cur;

  // Filter conditions and the projection both reference the scan's outputs
  // (filters preserve their child's columns), so one map serves all.
  // Residuals run bottom-up, in the order the discrete filters would.
  auto scan_map = PositionMap(scan.outputs);
  std::vector<ExprPtr> residuals;
  for (auto it = filters.rbegin(); it != filters.rend(); ++it) {
    INDBML_ASSIGN_OR_RETURN(auto cond, Remap(*(*it)->condition, scan_map));
    residuals.push_back(std::move(cond));
  }
  std::vector<int> projection;
  std::vector<std::string> names;
  if (project != nullptr) {
    for (size_t i = 0; i < project->exprs.size(); ++i) {
      auto it = scan_map.find(project->exprs[i]->column_id);
      if (it == scan_map.end()) return OperatorPtr();
      projection.push_back(static_cast<int>(it->second));
      names.push_back(project->outputs[i].name);
    }
  }
  // Every node below the chain root is absorbed: it reports its own rows,
  // while the root's ProfiledOperator times the whole chain.
  exec::ScanProfile profile;
  if (profile_ != nullptr) {
    auto absorbed = [&](const LogicalOp* n) {
      return n == &node ? -1 : profile_node_ids_.at(n);
    };
    profile.profile = profile_;
    profile.scan_node = absorbed(&scan);
    for (auto it = filters.rbegin(); it != filters.rend(); ++it) {
      profile.residual_nodes.push_back(absorbed(*it));
    }
  }

  if (IsMorselBound(scan)) {
    // Morsel-bound: starts empty; the pipeline executor re-targets the
    // scan's row range per claimed morsel via Rewind.
    return OperatorPtr(std::make_unique<exec::TableScanOperator>(
        exec::TableScanOperator::MorselBound{}, scan.table, scan.scan_columns,
        scan.pushed, std::move(residuals), std::move(projection), std::move(names),
        std::move(profile)));
  }
  return OperatorPtr(std::make_unique<exec::TableScanOperator>(
      scan.table, storage::PartitionRange{0, scan.table->num_rows()},
      scan.scan_columns, scan.pushed, std::move(residuals), std::move(projection),
      std::move(names), std::move(profile)));
}

Result<PhysicalPlanner::JoinInputs> PhysicalPlanner::BuildJoinInputs(
    const LogicalOp& join, int worker) {
  JoinInputs in;
  INDBML_ASSIGN_OR_RETURN(in.probe, Build(*join.children[0], worker));
  INDBML_ASSIGN_OR_RETURN(in.build, Build(*join.children[1], worker));
  auto probe_map = PositionMap(join.children[0]->outputs);
  auto build_map = PositionMap(join.children[1]->outputs);
  for (const auto& k : join.probe_keys) {
    INDBML_ASSIGN_OR_RETURN(auto e, Remap(*k, probe_map));
    in.probe_keys.push_back(std::move(e));
  }
  for (const auto& k : join.build_keys) {
    INDBML_ASSIGN_OR_RETURN(auto e, Remap(*k, build_map));
    in.build_keys.push_back(std::move(e));
  }
  return in;
}

Result<OperatorPtr> PhysicalPlanner::TryBuildGroupJoin(const LogicalOp& node,
                                                       int worker) {
  if (!node.streaming || node.children[0]->kind != LogicalKind::kHashJoin) {
    return OperatorPtr();
  }
  const LogicalOp& join = *node.children[0];
  auto probe_map = PositionMap(join.children[0]->outputs);
  auto build_map = PositionMap(join.children[1]->outputs);
  const size_t prefix = static_cast<size_t>(node.streaming_prefix);
  // Prefix keys must be probe columns and the remaining keys build columns.
  for (size_t g = 0; g < node.groups.size(); ++g) {
    const exec::Expr& key = *node.groups[g];
    const auto& side = g < prefix ? probe_map : build_map;
    if (key.kind != exec::ExprKind::kColumnRef || side.count(key.column_id) == 0) {
      return OperatorPtr();
    }
  }
  // The narrow chunk: the probe columns the aggregate arguments read, then
  // the build columns they read.
  std::vector<int64_t> ids;
  for (const auto& a : node.aggregates) {
    if (a.argument) exec::CollectColumnIds(*a.argument, &ids);
  }
  std::unordered_map<int64_t, int64_t> narrow_map;
  std::vector<int> probe_columns;
  std::vector<int> build_columns;
  for (int64_t id : ids) {
    auto it = probe_map.find(id);
    if (it == probe_map.end() || narrow_map.count(id) > 0) continue;
    narrow_map[id] = static_cast<int64_t>(probe_columns.size());
    probe_columns.push_back(static_cast<int>(it->second));
  }
  for (int64_t id : ids) {
    auto it = build_map.find(id);
    if (it == build_map.end() || narrow_map.count(id) > 0) continue;
    narrow_map[id] = static_cast<int64_t>(probe_columns.size() + build_columns.size());
    build_columns.push_back(static_cast<int>(it->second));
  }
  std::vector<ExprPtr> prefix_keys;
  std::vector<ExprPtr> rest_keys;
  std::vector<std::string> group_names;
  for (size_t g = 0; g < node.groups.size(); ++g) {
    INDBML_ASSIGN_OR_RETURN(auto e,
                            Remap(*node.groups[g], g < prefix ? probe_map : build_map));
    (g < prefix ? prefix_keys : rest_keys).push_back(std::move(e));
    group_names.push_back(node.outputs[g].name);
  }
  INDBML_ASSIGN_OR_RETURN(auto aggs, RemapAggregates(node, narrow_map));
  INDBML_ASSIGN_OR_RETURN(JoinInputs in, BuildJoinInputs(join, worker));
  return OperatorPtr(std::make_unique<exec::GroupJoinOperator>(
      std::move(in.probe), std::move(in.build), std::move(in.probe_keys),
      std::move(in.build_keys), std::move(probe_columns), std::move(build_columns),
      std::move(prefix_keys), std::move(rest_keys), std::move(group_names),
      std::move(aggs), profile_,
      profile_ != nullptr ? profile_node_ids_.at(&join) : -1));
}

Result<OperatorPtr> PhysicalPlanner::BuildNode(const LogicalOp& node, int worker) {
  switch (node.kind) {
    case LogicalKind::kScan:
      return TryBuildScan(node);
    case LogicalKind::kFilter: {
      INDBML_ASSIGN_OR_RETURN(auto scan, TryBuildScan(node));
      if (scan != nullptr) return scan;
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], worker));
      auto mapping = PositionMap(node.children[0]->outputs);
      INDBML_ASSIGN_OR_RETURN(auto cond, Remap(*node.condition, mapping));
      return OperatorPtr(
          std::make_unique<exec::FilterOperator>(std::move(child), std::move(cond)));
    }
    case LogicalKind::kProject: {
      INDBML_ASSIGN_OR_RETURN(auto scan, TryBuildScan(node));
      if (scan != nullptr) return scan;
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], worker));
      auto mapping = PositionMap(node.children[0]->outputs);
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (size_t i = 0; i < node.exprs.size(); ++i) {
        INDBML_ASSIGN_OR_RETURN(auto e, Remap(*node.exprs[i], mapping));
        exprs.push_back(std::move(e));
        names.push_back(node.outputs[i].name);
      }
      return OperatorPtr(std::make_unique<exec::ProjectOperator>(
          std::move(child), std::move(exprs), std::move(names)));
    }
    case LogicalKind::kHashJoin: {
      INDBML_ASSIGN_OR_RETURN(JoinInputs in, BuildJoinInputs(node, worker));
      return OperatorPtr(std::make_unique<exec::HashJoinOperator>(
          std::move(in.probe), std::move(in.build), std::move(in.probe_keys),
          std::move(in.build_keys)));
    }
    case LogicalKind::kCrossJoin: {
      INDBML_ASSIGN_OR_RETURN(auto left, Build(*node.children[0], worker));
      INDBML_ASSIGN_OR_RETURN(auto right, Build(*node.children[1], worker));
      return OperatorPtr(std::make_unique<exec::CrossJoinOperator>(std::move(left),
                                                                   std::move(right)));
    }
    case LogicalKind::kAggregate: {
      INDBML_ASSIGN_OR_RETURN(auto groupjoin, TryBuildGroupJoin(node, worker));
      if (groupjoin != nullptr) return groupjoin;
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], worker));
      auto mapping = PositionMap(node.children[0]->outputs);
      std::vector<ExprPtr> groups;
      std::vector<std::string> group_names;
      for (size_t g = 0; g < node.groups.size(); ++g) {
        INDBML_ASSIGN_OR_RETURN(auto e, Remap(*node.groups[g], mapping));
        groups.push_back(std::move(e));
        group_names.push_back(node.outputs[g].name);
      }
      INDBML_ASSIGN_OR_RETURN(auto aggs, RemapAggregates(node, mapping));
      if (node.streaming) {
        return OperatorPtr(std::make_unique<exec::StreamingAggregateOperator>(
            std::move(child), std::move(groups), std::move(group_names),
            std::move(aggs), node.streaming_prefix));
      }
      return OperatorPtr(std::make_unique<exec::HashAggregateOperator>(
          std::move(child), std::move(groups), std::move(group_names),
          std::move(aggs)));
    }
    case LogicalKind::kSort: {
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], worker));
      auto mapping = PositionMap(node.children[0]->outputs);
      std::vector<ExprPtr> keys;
      for (const auto& k : node.sort_keys) {
        INDBML_ASSIGN_OR_RETURN(auto e, Remap(*k, mapping));
        keys.push_back(std::move(e));
      }
      return OperatorPtr(std::make_unique<exec::SortOperator>(
          std::move(child), std::move(keys), node.ascending));
    }
    case LogicalKind::kLimit: {
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], worker));
      return OperatorPtr(
          std::make_unique<exec::LimitOperator>(std::move(child), node.limit));
    }
    case LogicalKind::kModelJoin: {
      if (operator_factory_ == nullptr) {
        return Status::NotImplemented(
            "no native ModelJoin implementation registered with this engine");
      }
      INDBML_ASSIGN_OR_RETURN(auto child, Build(*node.children[0], worker));
      auto mapping = PositionMap(node.children[0]->outputs);
      ModelJoinPhysicalArgs args;
      for (int64_t id : node.modeljoin.input_column_ids) {
        auto it = mapping.find(id);
        if (it == mapping.end()) {
          return Status::Internal("ModelJoin input column pruned away");
        }
        args.input_column_indexes.push_back(static_cast<int>(it->second));
      }
      args.child = std::move(child);
      size_t child_width = node.children[0]->outputs.size();
      for (size_t i = child_width; i < node.outputs.size(); ++i) {
        args.prediction_names.push_back(node.outputs[i].name);
      }
      args.shared_state = modeljoin_states_.at(&node);
      args.inference = inference_;
      return operator_factory_(std::move(args));
    }
  }
  return Status::Internal("unhandled logical operator");
}

}  // namespace indbml::sql
