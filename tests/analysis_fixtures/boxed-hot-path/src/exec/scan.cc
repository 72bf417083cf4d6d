// Fixture: a scan that tests each row against its pushed predicates through
// a boxed Value instead of the mask kernels over the column buffer.
namespace indbml::exec {

bool RowPasses(const storage::Column& col, const ScanPredicate& p, int64_t r) {
  return col.GetValue(r).AsDouble() >= p.value.AsDouble();  // ^find
}

}  // namespace indbml::exec
