// Fixture: a fused join-aggregate that reads each pair's argument through a
// boxed Value instead of gathering the argument columns.
namespace indbml::exec {

double SumPair(const DataChunk& probe, const std::vector<Vector>& build, int32_t p,
               int32_t b) {
  const double a = probe.column(1).GetValue(p).AsDouble();  // ^find
  return a * build[2].GetValue(b).AsDouble();  // ^find
}

}  // namespace indbml::exec
