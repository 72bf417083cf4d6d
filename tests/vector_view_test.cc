// Tests of the zero-copy data-flow layer: the shared Buffer, the three
// Vector representations (owned / view / view + selection), Flatten()
// round-trips, copy-on-write, Buffer-level MemoryTracker accounting, and —
// the tentpole acceptance property — that scan→filter→project plans share
// table storage instead of copying it.

#include "exec/vector.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "exec/basic_operators.h"
#include "exec/expression.h"
#include "exec/gather.h"
#include "exec/scan.h"
#include "storage/table.h"
#include "test_util.h"

namespace indbml {
namespace {

using exec::DataChunk;
using exec::DataType;
using exec::ExecContext;
using exec::SelectionVector;
using exec::Vector;

int64_t Metric(const std::string& name) {
  return metrics::Registry::Global().counter(name)->value();
}

/// A finalized one-column int64 table with values 0..rows-1.
storage::TablePtr IotaTable(int64_t rows) {
  auto table = std::make_shared<storage::Table>(
      "t", std::vector<storage::Field>{{"a", DataType::kInt64},
                                       {"x", DataType::kFloat}});
  table->Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    INDBML_CHECK(table
                     ->AppendRow({storage::Value::Int64(i),
                                  storage::Value::Float(static_cast<float>(i) / 2)})
                     .ok());
  }
  table->Finalize();
  return table;
}

// ---------- representations ----------

TEST(VectorViewTest, ViewSharesBufferAndReadsThrough) {
  BufferPtr buf = Buffer::New(8 * sizeof(int64_t));
  auto* data = reinterpret_cast<int64_t*>(buf->data());
  for (int64_t i = 0; i < 8; ++i) data[i] = 100 + i;

  Vector v = Vector::View(DataType::kInt64, buf, 2, 4);  // rows 102..105
  EXPECT_EQ(v.size(), 4);
  EXPECT_FALSE(v.has_selection());
  EXPECT_EQ(v.buffer().get(), buf.get());
  EXPECT_EQ(std::as_const(v).ints()[0], 102);
  EXPECT_EQ(v.GetInt64At(3), 105);
  // Two owners: the view and `buf` — no data was copied.
  EXPECT_EQ(buf.use_count(), 2);
}

TEST(VectorViewTest, SelectionComposes) {
  BufferPtr buf = Buffer::New(8 * sizeof(int64_t));
  auto* data = reinterpret_cast<int64_t*>(buf->data());
  for (int64_t i = 0; i < 8; ++i) data[i] = i;

  Vector v = Vector::View(DataType::kInt64, buf, 0, 8);
  auto evens = std::make_shared<const SelectionVector>(
      std::vector<int32_t>{0, 2, 4, 6});
  Vector selected = v.WithSelection(evens);
  EXPECT_EQ(selected.size(), 4);
  EXPECT_TRUE(selected.has_selection());
  EXPECT_EQ(selected.GetInt64At(1), 2);
  EXPECT_EQ(selected.buffer().get(), buf.get());

  // Selecting a selected view composes indices: logical rows {1, 3} of
  // `selected` are base rows {2, 6}.
  auto odd_positions =
      std::make_shared<const SelectionVector>(std::vector<int32_t>{1, 3});
  Vector composed = selected.WithSelection(odd_positions);
  EXPECT_EQ(composed.size(), 2);
  EXPECT_EQ(composed.GetInt64At(0), 2);
  EXPECT_EQ(composed.GetInt64At(1), 6);
  EXPECT_EQ(composed.buffer().get(), buf.get());
}

TEST(VectorViewTest, FlattenMaterializesSelectedRows) {
  BufferPtr buf = Buffer::New(6 * sizeof(float));
  auto* data = reinterpret_cast<float*>(buf->data());
  for (int64_t i = 0; i < 6; ++i) data[i] = static_cast<float>(i) * 1.5f;

  Vector v = Vector::View(DataType::kFloat, buf, 0, 6)
                 .WithSelection(std::make_shared<const SelectionVector>(
                     std::vector<int32_t>{5, 1, 3}));
  const int64_t flattens_before = Metric("vector.flattens");
  v.Flatten();
  EXPECT_EQ(Metric("vector.flattens"), flattens_before + 1);
  EXPECT_FALSE(v.has_selection());
  EXPECT_EQ(v.size(), 3);
  // Private contiguous copy in gather order; the source is untouched.
  EXPECT_NE(v.buffer().get(), buf.get());
  const float* flat = std::as_const(v).floats();
  EXPECT_FLOAT_EQ(flat[0], 7.5f);
  EXPECT_FLOAT_EQ(flat[1], 1.5f);
  EXPECT_FLOAT_EQ(flat[2], 4.5f);
  // Second Flatten is a no-op.
  v.Flatten();
  EXPECT_EQ(Metric("vector.flattens"), flattens_before + 1);
}

TEST(VectorViewTest, CopyIsZeroCopyUntilWrite) {
  Vector owned(DataType::kInt64);
  owned.Resize(4);
  for (int64_t i = 0; i < 4; ++i) owned.ints()[i] = i * 10;

  Vector copy = owned;
  EXPECT_EQ(copy.buffer().get(), owned.buffer().get());

  // First write through the copy triggers copy-on-write: the original keeps
  // its values and its buffer.
  const Buffer* original_buffer = owned.buffer().get();
  copy.ints()[0] = 999;
  EXPECT_NE(copy.buffer().get(), original_buffer);
  EXPECT_EQ(owned.buffer().get(), original_buffer);
  EXPECT_EQ(owned.GetInt64At(0), 0);
  EXPECT_EQ(copy.GetInt64At(0), 999);
  EXPECT_EQ(copy.GetInt64At(3), 30);
}

// ---------- memory accounting ----------

TEST(BufferAccountingTest, SharedBufferCountedExactlyOnce) {
  MemoryTracker& tracker = MemoryTracker::Global();
  const int64_t before = tracker.current_bytes();
  BufferPtr buf = Buffer::New(1 << 20);
  EXPECT_EQ(tracker.current_bytes(), before + (1 << 20));

  // A thousand views over the same buffer add nothing.
  std::vector<Vector> views;
  for (int i = 0; i < 1000; ++i) {
    views.push_back(Vector::View(DataType::kFloat, buf, 0, 16));
  }
  EXPECT_EQ(tracker.current_bytes(), before + (1 << 20));

  // The buffer is freed exactly once, when the last owner lets go.
  buf.reset();
  EXPECT_EQ(tracker.current_bytes(), before + (1 << 20));
  views.clear();
  EXPECT_EQ(tracker.current_bytes(), before);
}

/// Regression for the Table-3 experiment: base-table storage used to be
/// invisible to the tracker; loading a table must move the peak gauge.
TEST(BufferAccountingTest, TableLoadMovesPeakGauge) {
  MemoryTracker& tracker = MemoryTracker::Global();
  const int64_t before = tracker.current_bytes();
  constexpr int64_t kRows = 100000;
  auto table = IotaTable(kRows);
  // int64 + float columns: at least 12 bytes per row must be visible.
  EXPECT_GE(tracker.current_bytes() - before, kRows * 12);
  EXPECT_GE(tracker.peak_bytes(), tracker.current_bytes());
  table.reset();
  EXPECT_EQ(tracker.current_bytes(), before);
}

// ---------- gather kernels ----------

TEST(GatherTest, TypedGatherThroughSelection) {
  BufferPtr buf = Buffer::New(5 * sizeof(int64_t));
  auto* data = reinterpret_cast<int64_t*>(buf->data());
  for (int64_t i = 0; i < 5; ++i) data[i] = i + 1;
  Vector v = Vector::View(DataType::kInt64, buf, 0, 5)
                 .WithSelection(std::make_shared<const SelectionVector>(
                     std::vector<int32_t>{4, 0, 2}));

  float dense[3] = {0, 0, 0};
  exec::GatherToFloat(v, dense);
  EXPECT_FLOAT_EQ(dense[0], 5.0f);
  EXPECT_FLOAT_EQ(dense[1], 1.0f);
  EXPECT_FLOAT_EQ(dense[2], 3.0f);

  // Row-major pack: write the same column at stride 2, offset 1.
  float row_major[6] = {0, 0, 0, 0, 0, 0};
  exec::GatherToFloatStrided(v, row_major + 1, 2);
  EXPECT_FLOAT_EQ(row_major[1], 5.0f);
  EXPECT_FLOAT_EQ(row_major[3], 1.0f);
  EXPECT_FLOAT_EQ(row_major[5], 3.0f);

  exec::TypedDoubleReader reader(v);
  EXPECT_DOUBLE_EQ(reader.DoubleAt(0), 5.0);
  EXPECT_DOUBLE_EQ(reader.DoubleAt(2), 3.0);
}

// ---------- the zero-copy pipeline ----------

TEST(ZeroCopyScanTest, ScanEmitsViewsOverTableStorage) {
  auto table = IotaTable(3000);
  exec::TableScanOperator scan(table, {0, table->num_rows()}, {0, 1}, {});
  ExecContext ctx;
  ASSERT_OK(scan.Open(&ctx));
  DataChunk chunk;
  chunk.Reset(scan.output_types());
  bool eof = false;
  ASSERT_OK(scan.Next(&ctx, &chunk, &eof));
  ASSERT_EQ(chunk.size, kDefaultVectorSize);
  // The chunk's columns ARE the table's buffers — no copy happened.
  EXPECT_EQ(chunk.column(0).buffer().get(), table->column(0).buffer().get());
  EXPECT_EQ(chunk.column(1).buffer().get(), table->column(1).buffer().get());
  EXPECT_EQ(chunk.column(0).GetInt64At(17), 17);

  // Second chunk: a view at offset kDefaultVectorSize.
  chunk.Reset(scan.output_types());
  ASSERT_OK(scan.Next(&ctx, &chunk, &eof));
  EXPECT_EQ(chunk.column(0).GetInt64At(0), kDefaultVectorSize);
  scan.Close(&ctx);
}

TEST(ZeroCopyScanTest, FilterEmitsSelectionsWithoutCopyingBaseColumns) {
  auto table = IotaTable(3000);
  auto scan = std::make_unique<exec::TableScanOperator>(
      table, storage::PartitionRange{0, table->num_rows()},
      std::vector<int>{0, 1}, std::vector<exec::ScanPredicate>{});
  // a % 3 = 0
  auto cond = exec::MakeBinary(
      exec::BinaryOp::kEq,
      exec::MakeBinary(exec::BinaryOp::kMod,
                       exec::MakeColumnRef(0, DataType::kInt64),
                       exec::MakeConstant(storage::Value::Int64(3))),
      exec::MakeConstant(storage::Value::Int64(0)));
  exec::FilterOperator filter(std::move(scan), std::move(cond));

  const int64_t flattens_before = Metric("vector.flattens");
  const int64_t cow_before = Metric("vector.cow_copies");
  ExecContext ctx;
  ASSERT_OK_AND_ASSIGN(auto result, exec::DrainOperator(&filter, &ctx));
  ASSERT_EQ(result.num_rows, 1000);
  // Survivor columns are selections over the table's own buffers...
  ASSERT_FALSE(result.chunks.empty());
  for (const DataChunk& chunk : result.chunks) {
    EXPECT_TRUE(chunk.column(0).has_selection());
    EXPECT_EQ(chunk.column(0).buffer().get(), table->column(0).buffer().get());
    EXPECT_EQ(chunk.column(1).buffer().get(), table->column(1).buffer().get());
  }
  // ...and no base column was flattened or copy-on-written to get here.
  EXPECT_EQ(Metric("vector.flattens"), flattens_before);
  EXPECT_EQ(Metric("vector.cow_copies"), cow_before);
  EXPECT_EQ(result.GetValue(1, 0).i, 3);
  EXPECT_EQ(result.GetValue(999, 0).i, 2997);
}

TEST(ZeroCopyScanTest, ScanViewsKeepTableStorageAliveAfterTableIsGone) {
  exec::QueryResult result;
  {
    auto table = IotaTable(2000);
    exec::TableScanOperator scan(table, {0, table->num_rows()}, {0, 1}, {});
    ExecContext ctx;
    ASSERT_OK_AND_ASSIGN(result, exec::DrainOperator(&scan, &ctx));
    // `table` (the last external owner) dies here; the result's views must
    // pin the column buffers (ASan guards the read below).
  }
  ASSERT_EQ(result.num_rows, 2000);
  int64_t sum = 0;
  for (int64_t r = 0; r < result.num_rows; ++r) sum += result.GetValue(r, 0).i;
  EXPECT_EQ(sum, 2000 * 1999 / 2);
}

}  // namespace
}  // namespace indbml
