#include "exec/query_result.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace indbml::exec {

Value QueryResult::GetValue(int64_t row, int64_t col) const {
  for (const DataChunk& chunk : chunks) {
    if (row < chunk.size) return chunk.column(col).GetValue(row);
    row -= chunk.size;
  }
  INDBML_LOG(Fatal) << "row out of range";
  return Value();
}

Result<int> QueryResult::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (EqualsIgnoreCase(names[i], name)) return static_cast<int>(i);
  }
  return Status::NotFound("result column '" + name + "' not found");
}

storage::TablePtr QueryResult::ToTable(const std::string& table_name) const {
  std::vector<storage::Field> fields;
  for (size_t i = 0; i < names.size(); ++i) {
    fields.push_back({names[i], types[i]});
  }
  auto table = std::make_shared<storage::Table>(table_name, fields);
  table->Reserve(num_rows);
  for (const DataChunk& chunk : chunks) {
    for (int64_t r = 0; r < chunk.size; ++r) {
      std::vector<Value> row;
      row.reserve(static_cast<size_t>(chunk.num_columns()));
      for (int64_t c = 0; c < chunk.num_columns(); ++c) {
        row.push_back(chunk.column(c).GetValue(r));
      }
      INDBML_CHECK(table->AppendRow(row).ok());
    }
  }
  table->Finalize();
  return table;
}

int64_t QueryResult::MemoryBytes() const {
  int64_t total = 0;
  for (const DataChunk& chunk : chunks) {
    for (const Vector& v : chunk.columns) {
      total += v.size() * DataTypeSize(v.type());
    }
  }
  return total;
}

}  // namespace indbml::exec
