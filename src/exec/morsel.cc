#include "exec/morsel.h"

#include <algorithm>
#include <string>

#include "common/config.h"
#include "common/logging.h"
#include "common/trace.h"

namespace indbml::exec {

std::vector<storage::PartitionRange> MakeMorsels(const storage::Table& table,
                                                 int64_t morsel_rows) {
  if (morsel_rows <= 0) morsel_rows = kDefaultMorselRows;
  const int64_t n = table.num_rows();
  std::vector<storage::PartitionRange> morsels;
  if (n == 0) return morsels;
  morsels.reserve(static_cast<size_t>((n + morsel_rows - 1) / morsel_rows));

  // Group alignment: never split a run of equal ids across morsels (§4.4's
  // repartitioning-free guarantee depends on id groups staying within one
  // worker's row range).
  const storage::Column* id = nullptr;
  if (!table.unique_id_column().empty()) {
    Result<int> idx = table.ColumnIndex(table.unique_id_column());
    if (idx.ok() &&
        table.column(idx.ValueOrDie()).type() == storage::DataType::kInt64) {
      id = &table.column(idx.ValueOrDie());
    }
  }

  int64_t begin = 0;
  while (begin < n) {
    int64_t end = std::min<int64_t>(begin + morsel_rows, n);
    if (id != nullptr) {
      while (end < n && id->GetInt64(end) == id->GetInt64(end - 1)) ++end;
    }
    morsels.push_back({begin, end});
    begin = end;
  }
  return morsels;
}

Status RunMorsel(Operator* root, ExecContext* ctx, const Morsel& morsel,
                 ResultCollector* collector) {
  ctx->morsel_begin = morsel.begin;
  ctx->morsel_end = morsel.end;
  ctx->morsel_index = morsel.index;
  INDBML_RETURN_NOT_OK(root->Rewind(ctx));
  QueryResult batch;
  batch.types = root->output_types();
  INDBML_RETURN_NOT_OK(DrainAppend(root, ctx, &batch));
  collector->Add(morsel.index, std::move(batch.chunks), batch.num_rows);
  return Status::OK();
}

Result<QueryResult> ExecutePipeline(const WorkerPlanFactory& factory,
                                    MorselSource* source, int num_workers,
                                    storage::Catalog* catalog, ThreadPool* pool) {
  if (num_workers <= 0) num_workers = 1;
  ResultCollector collector(source->num_morsels());
  FirstError first_error;

  auto record_error = [&](const Status& s) {
    source->Abort();
    first_error.Record(s);
  };

  auto run_worker = [&](int w) {
    trace::Span span("worker " + std::to_string(w));
    ExecContext ctx;
    ctx.catalog = catalog;
    ctx.worker_id = w;
    Result<OperatorPtr> op = factory(w);
    if (!op.ok()) {
      record_error(op.status());
      return;
    }
    Operator* root = op.ValueOrDie().get();
    Status status = root->Open(&ctx);
    if (status.ok()) {
      collector.SetSchema(root->output_names(), root->output_types());
      Morsel m;
      while (source->Next(&m)) {
        status = RunMorsel(root, &ctx, m, &collector);
        if (!status.ok()) {
          record_error(status);
          break;
        }
      }
    } else {
      record_error(status);
    }
    root->Close(&ctx);
  };

  if (pool != nullptr && num_workers > 1) {
    pool->ParallelFor(num_workers, run_worker);
  } else {
    for (int w = 0; w < num_workers; ++w) run_worker(w);
  }

  Status first = first_error.Get();
  if (!first.ok()) return first;
  return collector.Assemble();
}

}  // namespace indbml::exec
