#ifndef INDBML_EXEC_MORSEL_H_
#define INDBML_EXEC_MORSEL_H_

#include <atomic>
#include <functional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "exec/operator.h"
#include "storage/table.h"

namespace indbml::exec {

/// One unit of scheduling work: a contiguous row range of the partitioned
/// base table, plus its position in global row order (used by the
/// ResultCollector to reassemble the serial row order).
struct Morsel {
  int64_t begin = 0;
  int64_t end = 0;  // exclusive
  int64_t index = 0;
};

/// Splits `table` into contiguous morsels of ~`morsel_rows` rows each.
///
/// When the table declares a unique-id column of type Int64, each morsel
/// boundary is extended forward while the id value does not change, so rows
/// sharing an id (e.g. the per-(id, node) model-table layout of paper §4.2)
/// never straddle two morsels. That keeps id-rooted streaming aggregation
/// over a morsel row-identical to serial execution: every group is fully
/// contained in exactly one morsel.
std::vector<storage::PartitionRange> MakeMorsels(const storage::Table& table,
                                                 int64_t morsel_rows);

/// \brief Shared work queue of morsels with an atomic claim cursor.
///
/// All pipeline workers pull from the same source until it runs dry — the
/// morsel-driven scheduling of Leis et al. Each morsel is handed out exactly
/// once.
/// Not movable/copyable (atomics); build the morsel vector with MakeMorsels
/// and pass it in.
class MorselSource {
 public:
  explicit MorselSource(std::vector<storage::PartitionRange> morsels)
      : morsels_(std::move(morsels)) {}

  MorselSource(const MorselSource&) = delete;
  MorselSource& operator=(const MorselSource&) = delete;

  /// Claims the next morsel. Returns false when the queue is dry or the
  /// source was aborted (a worker failed; the rest stop pulling).
  bool Next(Morsel* out) {
    if (aborted_.load(std::memory_order_acquire)) return false;
    int64_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= static_cast<int64_t>(morsels_.size())) return false;
    out->begin = morsels_[static_cast<size_t>(i)].begin;
    out->end = morsels_[static_cast<size_t>(i)].end;
    out->index = i;
    return true;
  }

  /// Stops further hand-outs (error propagation between workers).
  void Abort() { aborted_.store(true, std::memory_order_release); }
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  int64_t num_morsels() const { return static_cast<int64_t>(morsels_.size()); }

 private:
  std::vector<storage::PartitionRange> morsels_;  ///< immutable after ctor
  /// lock-free: cursor_ hands out each index exactly once via relaxed
  /// fetch_add (morsels_ is immutable, so no ordering is needed for the
  /// read). aborted_ uses release/acquire so whatever the aborting worker
  /// wrote before Abort() is visible to workers that observe the stop.
  std::atomic<int64_t> cursor_{0};
  std::atomic<bool> aborted_{false};
};

/// \brief Reassembles per-morsel output batches into global row order.
///
/// One slot per morsel, written by exactly the worker that claimed that
/// morsel (slots are disjoint, so no per-slot locking; the return of the
/// executor's ParallelFor provides the happens-before edge to Assemble).
/// The result schema is recorded once, first worker wins.
class ResultCollector {
 public:
  explicit ResultCollector(int64_t num_morsels)
      : batches_(static_cast<size_t>(num_morsels)) {}

  void SetSchema(const std::vector<std::string>& names,
                 const std::vector<DataType>& types) INDBML_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (have_schema_) return;
    names_ = names;
    types_ = types;
    have_schema_ = true;
  }

  /// Records the output of morsel `index`. Called at most once per index.
  void Add(int64_t index, std::vector<DataChunk> chunks, int64_t rows) {
    Batch& b = batches_[static_cast<size_t>(index)];
    b.chunks = std::move(chunks);
    b.rows = rows;
  }

  /// Concatenates all batches in morsel order. Call only after all workers
  /// finished (consumes the batches).
  QueryResult Assemble() INDBML_EXCLUDES(mu_) {
    QueryResult merged;
    {
      MutexLock lock(mu_);
      merged.names = names_;
      merged.types = types_;
    }
    for (Batch& b : batches_) {
      merged.num_rows += b.rows;
      for (DataChunk& chunk : b.chunks) merged.chunks.push_back(std::move(chunk));
      b.chunks.clear();
    }
    return merged;
  }

 private:
  struct Batch {
    std::vector<DataChunk> chunks;
    int64_t rows = 0;
  };

  /// Deliberately *not* guarded: slot `i` is written only by the single
  /// worker that claimed morsel `i` (slots are disjoint), and Assemble runs
  /// after the executor's ParallelFor returned, which provides the
  /// happens-before edge.
  std::vector<Batch> batches_;
  Mutex mu_;
  bool have_schema_ INDBML_GUARDED_BY(mu_) = false;
  std::vector<std::string> names_ INDBML_GUARDED_BY(mu_);
  std::vector<DataType> types_ INDBML_GUARDED_BY(mu_);
};

/// \brief First-error-wins sink shared by concurrent pipeline workers.
///
/// Local `std::mutex` + `Status` pairs cannot carry thread-safety
/// annotations (only members can be GUARDED_BY), so the executors share
/// this small annotated class instead.
class FirstError {
 public:
  /// Records `s` if it is the first non-OK status seen.
  void Record(const Status& s) INDBML_EXCLUDES(mu_) {
    if (s.ok()) return;
    MutexLock lock(mu_);
    if (first_.ok()) first_ = s;
  }

  /// The first recorded error, or OK. Call after workers are joined for an
  /// authoritative answer.
  Status Get() const INDBML_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return first_;
  }

 private:
  mutable Mutex mu_;
  Status first_ INDBML_GUARDED_BY(mu_);
};

/// Runs one claimed morsel on an *open* operator tree: publishes the row
/// range via `ctx`, Rewinds the plan, drains it, and records the tagged
/// batch in the collector. Shared by the per-query pipeline executor below
/// and the multi-query shared executor (server/executor.h), so both
/// schedule the identical unit of work.
Status RunMorsel(Operator* root, ExecContext* ctx, const Morsel& morsel,
                 ResultCollector* collector);

/// Creates the private operator-tree instance for one pipeline worker.
/// Shared state (the ModelJoin's shared model, the morsel source binding)
/// is captured inside the factory.
using WorkerPlanFactory = std::function<Result<OperatorPtr>(int worker)>;

/// \brief Runs `num_workers` private plans over a shared MorselSource.
///
/// Each worker Opens its plan once, then loops: claim a morsel, publish its
/// range via the ExecContext, Rewind the plan, drain it, hand the tagged
/// chunks to the ResultCollector. On error the worker aborts the source so
/// the others stop pulling. Plans always get Closed. No worker's Open waits
/// on another worker, so the workers need not run concurrently.
///
/// Runs on `pool` when provided and num_workers > 1, serially otherwise.
Result<QueryResult> ExecutePipeline(const WorkerPlanFactory& factory,
                                    MorselSource* source, int num_workers,
                                    storage::Catalog* catalog, ThreadPool* pool);

}  // namespace indbml::exec

#endif  // INDBML_EXEC_MORSEL_H_
