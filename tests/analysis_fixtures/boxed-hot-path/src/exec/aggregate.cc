// Fixture: typed emission through exec/gather.h — the sanctioned way an
// operator builds new rows.
namespace indbml::exec {

void EmitGroups(const Vector& keys, const int32_t* idx, int64_t n, DataChunk* out) {
  GatherIndexed(keys, idx, n, &out->column(0), out->size);
  names.append("sum");  // std::string::append is not Vector::Append
}

}  // namespace indbml::exec
