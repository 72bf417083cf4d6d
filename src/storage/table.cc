#include "storage/table.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/string_util.h"

namespace indbml::storage {

std::string Value::ToString() const {
  switch (type) {
    case DataType::kBool:
      return b ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(i);
    case DataType::kFloat:
      return StrFormat("%g", static_cast<double>(f));
  }
  return "?";
}

Column& Column::operator=(const Column& other) {
  if (this == &other) return *this;
  type_ = other.type_;
  size_ = other.size_;
  buf_.reset();
  if (other.buf_ != nullptr && other.size_ > 0) {
    const int64_t bytes = other.size_ * DataTypeSize(type_);
    buf_ = Buffer::New(bytes);
    std::memcpy(buf_->data(), other.buf_->data(), static_cast<size_t>(bytes));
  }
  return *this;
}

void Column::EnsureCapacity(int64_t rows) {
  const int64_t elem = DataTypeSize(type_);
  const bool private_buf = buf_ != nullptr && buf_.use_count() == 1;
  if (private_buf && buf_->capacity() >= rows * elem) return;
  int64_t new_rows =
      std::max<int64_t>(rows, std::max<int64_t>(size_ * 2, int64_t{64}));
  BufferPtr fresh = Buffer::New(new_rows * elem);
  if (size_ > 0 && buf_ != nullptr) {
    std::memcpy(fresh->data(), buf_->data(),
                static_cast<size_t>(size_ * elem));
  }
  buf_ = std::move(fresh);
}

void Column::AppendValue(const Value& v) {
  switch (type_) {
    case DataType::kBool:
      AppendBool(v.b);
      return;
    case DataType::kInt64:
      AppendInt64(v.type == DataType::kFloat ? static_cast<int64_t>(v.f) : v.i);
      return;
    case DataType::kFloat:
      AppendFloat(v.type == DataType::kInt64 ? static_cast<float>(v.i) : v.f);
      return;
  }
}

Value Column::GetValue(int64_t row) const {
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(GetBool(row));
    case DataType::kInt64:
      return Value::Int64(GetInt64(row));
    case DataType::kFloat:
      return Value::Float(GetFloat(row));
  }
  return Value();
}

Table::Table(std::string name, std::vector<Field> fields)
    : name_(std::move(name)), fields_(std::move(fields)) {
  columns_.reserve(fields_.size());
  for (const Field& f : fields_) columns_.emplace_back(f.type);
}

Result<int> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (EqualsIgnoreCase(fields_[i].name, name)) return static_cast<int>(i);
  }
  return Status::NotFound("column '" + name + "' not in table '" + name_ + "'");
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != fields_.size()) {
    return Status::InvalidArgument(
        StrFormat("row width %zu does not match schema width %zu", values.size(),
                  fields_.size()));
  }
  if (finalized_) return Status::Internal("appending to a finalized table");
  for (size_t i = 0; i < values.size(); ++i) {
    columns_[i].AppendValue(values[i]);
  }
  ++num_rows_;
  return Status::OK();
}

void Table::Reserve(int64_t n) {
  for (auto& c : columns_) c.Reserve(num_rows_ + n);
}

void Table::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  num_rows_ = columns_.empty() ? 0 : columns_[0].size();
  stats_.assign(columns_.size(), {});
  for (size_t ci = 0; ci < columns_.size(); ++ci) {
    const Column& col = columns_[ci];
    int64_t blocks = num_blocks();
    stats_[ci].reserve(static_cast<size_t>(blocks));
    for (int64_t b = 0; b < blocks; ++b) {
      int64_t begin = b * rows_per_block_;
      int64_t end = std::min(begin + rows_per_block_, num_rows_);
      BlockStats bs;
      bs.min = col.GetValue(begin);
      bs.max = bs.min;
      bool bounded = false;
      for (int64_t r = begin; r < end; ++r) {
        Value v = col.GetValue(r);
        const double x = v.AsDouble();
        if (std::isnan(x)) {
          bs.has_nan = true;
          continue;
        }
        if (!bounded || x < bs.min.AsDouble()) bs.min = v;
        if (!bounded || x > bs.max.AsDouble()) bs.max = v;
        bounded = true;
      }
      stats_[ci].push_back(bs);
    }
  }
}

int64_t Table::MemoryBytes() const {
  int64_t total = 0;
  for (const auto& c : columns_) total += c.MemoryBytes();
  return total;
}

Status Catalog::CreateTable(TablePtr table) {
  MutexLock lock(mu_);
  std::string key = ToLower(table->name());
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + table->name() + "' already exists");
  }
  tables_[key] = std::move(table);
  version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

void Catalog::CreateOrReplaceTable(TablePtr table) {
  MutexLock lock(mu_);
  tables_[ToLower(table->name())] = std::move(table);
  version_.fetch_add(1, std::memory_order_release);
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("table '" + name + "' not found");
  return it->second;
}

Status Catalog::DropTable(const std::string& name) {
  MutexLock lock(mu_);
  if (tables_.erase(ToLower(name)) == 0) {
    return Status::NotFound("table '" + name + "' not found");
  }
  version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

std::vector<std::string> Catalog::ListTables() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [k, v] : tables_) names.push_back(v->name());
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace indbml::storage
