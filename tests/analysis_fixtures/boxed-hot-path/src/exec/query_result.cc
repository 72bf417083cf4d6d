// Fixture: boxing outside the hot-path files (result access for tests and
// diagnostics) is allowed.
namespace indbml::exec {

Value Cell(const DataChunk& chunk, int64_t row) { return chunk.column(0).GetValue(row); }

}  // namespace indbml::exec
