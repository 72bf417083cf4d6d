#ifndef INDBML_EXEC_QUERY_RESULT_H_
#define INDBML_EXEC_QUERY_RESULT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "exec/vector.h"
#include "storage/table.h"

namespace indbml::exec {

/// \brief Fully materialised query output.
struct QueryResult {
  std::vector<std::string> names;
  std::vector<DataType> types;
  std::vector<DataChunk> chunks;
  int64_t num_rows = 0;

  /// Row/column random access (test convenience; O(#chunks)).
  Value GetValue(int64_t row, int64_t col) const;

  /// Index of the result column with this (case-insensitive) name.
  Result<int> ColumnIndex(const std::string& name) const;

  /// Copies the result into a catalog table.
  storage::TablePtr ToTable(const std::string& table_name) const;

  /// Total bytes across all chunks (intermediate-result accounting).
  int64_t MemoryBytes() const;
};

}  // namespace indbml::exec

#endif  // INDBML_EXEC_QUERY_RESULT_H_
