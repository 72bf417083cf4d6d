#include "exec/operator.h"

#include <limits>

#include "common/config.h"
#include "exec/gather.h"

namespace indbml::exec {

Status Operator::Rewind(ExecContext*) {
  return Status::NotImplemented(
      "operator does not support morsel-driven re-execution (Rewind)");
}

Status DrainAppend(Operator* root, ExecContext* ctx, QueryResult* result) {
  bool eof = false;
  while (!eof) {
    DataChunk chunk;
    chunk.Reset(result->types);
    INDBML_RETURN_NOT_OK(root->Next(ctx, &chunk, &eof));
    if (chunk.size > 0) {
      result->num_rows += chunk.size;
      result->chunks.push_back(std::move(chunk));
    }
  }
  return Status::OK();
}

Result<QueryResult> DrainOperator(Operator* root, ExecContext* ctx) {
  INDBML_RETURN_NOT_OK(root->Open(ctx));
  QueryResult result;
  result.names = root->output_names();
  result.types = root->output_types();
  INDBML_RETURN_NOT_OK(DrainAppend(root, ctx, &result));
  root->Close(ctx);
  return result;
}

Status DrainColumns(Operator* root, ExecContext* ctx, std::vector<Vector>* columns,
                    int64_t* rows) {
  const std::vector<DataType>& types = root->output_types();
  columns->clear();
  for (DataType t : types) columns->emplace_back(t);
  *rows = 0;
  DataChunk chunk;
  bool eof = false;
  while (!eof) {
    chunk.Reset(types);
    INDBML_RETURN_NOT_OK(root->Next(ctx, &chunk, &eof));
    for (size_t c = 0; c < columns->size(); ++c) {
      GatherIndexed(chunk.column(static_cast<int64_t>(c)), nullptr, chunk.size,
                    &(*columns)[c], *rows);
    }
    *rows += chunk.size;
    if (*rows > std::numeric_limits<int32_t>::max()) {
      return Status::NotImplemented(
          "materialised input exceeds 2^31 - 1 rows (int32 gather indices)");
    }
  }
  return Status::OK();
}

DataChunk ColumnsChunk(const std::vector<Vector>& columns, int64_t rows) {
  DataChunk chunk;
  chunk.columns = columns;
  chunk.size = rows;
  return chunk;
}

}  // namespace indbml::exec
