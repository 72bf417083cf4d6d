// Fixture: boxed row emission inside a relational hot path (ML-To-SQL runs
// as joins and aggregates): every cell goes through a Value.
namespace indbml::exec {

void EmitMatch(const DataChunk& probe, int64_t row, DataChunk* out) {
  for (int64_t c = 0; c < probe.num_columns(); ++c) {
    out->column(c).Append(probe.column(c).GetValue(row));  // ^find
  }
  out->column(0).Append (Value::Int64(0));  // ^find
}

}  // namespace indbml::exec
