// Ablation of the native ModelJoin's vectorized inference (paper §5.3/5.4):
// sweeps the vector size (the batch each columnar→matrix conversion and GEMM
// processes) and compares the replicated-bias-matrix design against naive
// per-row bias addition. Small vectors pay per-call overheads; large vectors
// amortise them — the reason the engine's vector size (1024) is also the
// inference batch size (§6.1).

#include <algorithm>
#include <cstdio>

#include "benchlib/report.h"
#include "benchlib/workloads.h"
#include "common/config.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "mltosql/mltosql.h"
#include "modeljoin/modeljoin_operator.h"
#include "nn/model_meta.h"

namespace indbml::benchlib {
namespace {

/// Emits the iris feature columns in chunks of exactly `chunk_size` rows.
class FixedChunkSource final : public exec::Operator {
 public:
  FixedChunkSource(storage::TablePtr table, int64_t chunk_size)
      : table_(std::move(table)), chunk_size_(chunk_size) {
    for (int c = 0; c < table_->num_columns(); ++c) {
      types_.push_back(table_->fields()[static_cast<size_t>(c)].type);
      names_.push_back(table_->fields()[static_cast<size_t>(c)].name);
    }
  }

  const std::vector<exec::DataType>& output_types() const override { return types_; }
  const std::vector<std::string>& output_names() const override { return names_; }

  Status Open(exec::ExecContext*) override {
    cursor_ = 0;
    return Status::OK();
  }
  Status Next(exec::ExecContext*, exec::DataChunk* out, bool* eof) override {
    int64_t end = std::min(cursor_ + chunk_size_, table_->num_rows());
    for (int64_t r = cursor_; r < end; ++r) {
      for (int c = 0; c < table_->num_columns(); ++c) {
        out->column(c).Append(table_->column(c).GetValue(r));
      }
      ++out->size;
    }
    cursor_ = end;
    *eof = cursor_ >= table_->num_rows();
    return Status::OK();
  }

 private:
  storage::TablePtr table_;
  int64_t chunk_size_;
  int64_t cursor_ = 0;
  std::vector<exec::DataType> types_;
  std::vector<std::string> names_;
};

int Run() {
  ScaleConfig scale = ScaleConfig::FromEnv();
  const int64_t tuples = scale.paper_scale ? 100000 : 16000;
  const int64_t width = scale.paper_scale ? 128 : 64;

  auto fact = MakeIrisTable("fact", tuples);
  auto model_or = nn::MakeDenseBenchmarkModel(width, 4);
  INDBML_CHECK(model_or.ok());
  nn::Model model = std::move(model_or).ValueOrDie();
  mltosql::MlToSql framework(&model, "m");
  auto model_table_or = framework.BuildModelTable();
  INDBML_CHECK(model_table_or.ok());
  storage::TablePtr model_table = std::move(model_table_or).ValueOrDie();

  auto cpu = device::MakeCpuDevice();
  auto gpu = device::MakeSimGpuDevice();
  ReportTable table("ablation_modeljoin_vectorsize",
                    {"device", "vector_size", "seconds", "tuples_per_second"});

  for (device::Device* dev : {cpu.get(), gpu.get()}) {
    for (int64_t vs : {64, 256, 1024, 4096}) {
      dev->ResetStats();
      // The timed section includes the serial model build.
      Stopwatch watch;
      auto shared = inference::SharedModel::FromTable(
          nn::MetaOf(model, "m"), dev, static_cast<int>(vs), *model_table,
          /*pool=*/nullptr);
      INDBML_CHECK(shared.ok()) << shared.status().ToString();
      modeljoin::ModelJoinOperator op(
          std::make_unique<FixedChunkSource>(fact, vs),
          std::move(shared).ValueOrDie(), {1, 2, 3, 4}, {"prediction"});
      exec::ExecContext ctx;
      auto result = exec::DrainOperator(&op, &ctx);
      double seconds = watch.ElapsedSeconds();
      if (!result.ok()) {
        std::fprintf(stderr, "[modeljoin] vs=%lld failed: %s\n",
                     static_cast<long long>(vs), result.status().ToString().c_str());
        return 1;
      }
      if (dev->is_gpu()) {
        device::DeviceStats stats = dev->stats();
        seconds = std::max(seconds - stats.real_seconds + stats.modeled_seconds,
                           stats.modeled_seconds);
      }
      INDBML_CHECK(result->num_rows == tuples);
      table.AddRow({dev->name(), std::to_string(vs), FormatSeconds(seconds),
                    StrFormat("%.0f", static_cast<double>(tuples) / seconds)});
      std::printf("[modeljoin] %-7s vectorsize=%-5lld %8.4fs  (%.0f tuples/s)\n",
                  dev->name(), static_cast<long long>(vs), seconds,
                  static_cast<double>(tuples) / seconds);
    }
  }
  table.Finish();
  return 0;
}

}  // namespace
}  // namespace indbml::benchlib

int main() { return indbml::benchlib::Run(); }
