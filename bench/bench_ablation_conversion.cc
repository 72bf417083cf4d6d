// Ablation of the storage→inference conversion layer: what it costs to move
// a batch of columnar values into the dense float matrix a model kernel
// consumes (the paper's conversion overhead between the relational engine
// and the ML runtime, §6).
//
// "conversion": the columnar→matrix pack in isolation. "boxed" is the
// engine's historical per-cell path (Vector::GetValue(r) → Value →
// AsDouble), "typed" is the gather-kernel path (exec/gather.h) the ModelJoin
// and C-API operators now use — each timed over flat vectors and over
// selection views (filter survivors).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/workloads.h"
#include "common/buffer.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "exec/gather.h"
#include "exec/vector.h"

namespace indbml::benchlib {
namespace {

constexpr int kWidth = 8;  // model input columns per batch row

/// `kWidth` float columns of `rows` random values; with `with_selection`
/// each is a view keeping every other base row (a 50% filter's output).
std::vector<exec::Vector> MakeColumns(int64_t rows, bool with_selection,
                                      Random* rng) {
  const int64_t base_rows = with_selection ? rows * 2 : rows;
  exec::SelectionPtr sel;
  if (with_selection) {
    std::vector<int32_t> keep;
    keep.reserve(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) keep.push_back(static_cast<int32_t>(r * 2));
    sel = std::make_shared<const exec::SelectionVector>(std::move(keep));
  }
  std::vector<exec::Vector> cols;
  for (int c = 0; c < kWidth; ++c) {
    BufferPtr buf = Buffer::New(base_rows * static_cast<int64_t>(sizeof(float)));
    auto* data = reinterpret_cast<float*>(buf->data());
    for (int64_t r = 0; r < base_rows; ++r) data[r] = rng->NextFloat(-2, 2);
    exec::Vector v =
        exec::Vector::View(exec::DataType::kFloat, std::move(buf), 0, base_rows);
    cols.push_back(sel != nullptr ? v.WithSelection(sel) : std::move(v));
  }
  return cols;
}

/// Row-major matrix pack through the per-cell Value boxing the inference
/// operators used before the gather kernels (min seconds over `reps`).
double TimeBoxedPack(const std::vector<exec::Vector>& cols, float* dst,
                     int reps) {
  const int64_t rows = cols[0].size();
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (int64_t r = 0; r < rows; ++r) {
      for (int c = 0; c < kWidth; ++c) {
        dst[r * kWidth + c] =
            static_cast<float>(cols[static_cast<size_t>(c)].GetValue(r).AsDouble());
      }
    }
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// The same pack through the typed strided gather kernel.
double TimeTypedPack(const std::vector<exec::Vector>& cols, float* dst,
                     int reps) {
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (int c = 0; c < kWidth; ++c) {
      exec::GatherToFloatStrided(cols[static_cast<size_t>(c)], dst + c, kWidth);
    }
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

int Run() {
  ScaleConfig scale = ScaleConfig::FromEnv();
  const int64_t pack_rows = scale.paper_scale ? 1000000 : 200000;
  const int reps = 5;

  ReportTable conversion("ablation_conversion",
                         {"layout", "path", "seconds", "speedup_vs_boxed"});
  Random rng(7);
  std::vector<float> matrix(static_cast<size_t>(pack_rows) * kWidth);
  for (bool with_selection : {false, true}) {
    const char* layout = with_selection ? "selection" : "flat";
    auto cols = MakeColumns(pack_rows, with_selection, &rng);
    double boxed = TimeBoxedPack(cols, matrix.data(), reps);
    double typed = TimeTypedPack(cols, matrix.data(), reps);
    conversion.AddRow({layout, "boxed", FormatSeconds(boxed), "1.00x"});
    conversion.AddRow({layout, "typed", FormatSeconds(typed),
                       StrFormat("%.2fx", boxed / typed)});
    std::printf("[conversion] %-9s rows=%lld  boxed %8.4fs  typed %8.4fs  (%.2fx)\n",
                layout, static_cast<long long>(pack_rows), boxed, typed,
                boxed / typed);
  }
  conversion.Finish();
  return 0;
}

}  // namespace
}  // namespace indbml::benchlib

int main() { return indbml::benchlib::Run(); }
