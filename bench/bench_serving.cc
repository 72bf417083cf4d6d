// Serving benchmark (ISSUES 9 + 10): closed-loop QPS and tail latency of
// the session → shared-executor stack under concurrent sessions, on the
// Figure-8 dense ModelJoin workload.
//
// Each cell runs a fixed total number of queries split across N client
// sessions. Two ablations: shared models on/off at N in {1, 8, 64, 256}
// with the result cache off, so every query runs the forward pass and the
// pair isolates the per-query model build, plus per-query models with the
// cache on, which prices a cache table per query; and at 8 sessions the
// inference micro-batcher × result cache, to isolate what each buys over
// per-query inference launches (the paper's small-per-query-batch
// problem). The second block runs on the simulated GPU, where every kernel dispatch
// carries the modeled launch overhead that Figure 8 is about, and reports
// the modeled-adjusted time (wall − real + modeled, DESIGN.md §2). The
// serving path with a measured cache hit rate is perfbench's serve_zipf.
// Reported: QPS, p50/p95/p99 latency, coalesced-launch and cache-hit
// counts. REPRO_SCALE=paper enlarges the fact table and query count;
// --json mirrors the table to $RESULTS_DIR/bench_serving.json.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/workloads.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "device/device.h"
#include "inference/cache.h"
#include "modeljoin/model_registry.h"
#include "modeljoin/register.h"
#include "mltosql/mltosql.h"
#include "nn/model.h"
#include "nn/model_meta.h"
#include "server/server.h"
#include "sql/query_engine.h"

namespace indbml::benchlib {
namespace {

constexpr int64_t kModelWidth = 32;
constexpr int64_t kModelDepth = 3;

struct Latencies {
  std::vector<int64_t> micros;

  double Percentile(double p) const {
    if (micros.empty()) return 0;
    size_t idx = static_cast<size_t>(p * static_cast<double>(micros.size() - 1));
    return static_cast<double>(micros[idx]) / 1000.0;  // ms
  }
};

std::string DenseQuery(bool gpu = false) {
  return std::string(
             "SELECT id, prediction FROM fact MODEL JOIN m USING MODEL "
             "'dense' DEVICE '") +
         (gpu ? "gpu" : "cpu") +
         "' PREDICT (sepal_length, sepal_width, petal_length, petal_width)";
}

void DeployModel(sql::QueryEngine* engine) {
  auto model_or = nn::MakeDenseBenchmarkModel(kModelWidth, kModelDepth);
  INDBML_CHECK(model_or.ok()) << model_or.status().ToString();
  nn::Model model = std::move(model_or).ValueOrDie();
  mltosql::MlToSql framework(&model, "m");
  INDBML_CHECK(framework.Deploy(engine).ok());
  engine->models()->Register(nn::MetaOf(model, "dense"));
}

int64_t CounterValue(const char* name) {
  return metrics::Registry::Global().counter(name)->value();
}

/// Which serving-stack layers a cell runs with. The inference knobs map to
/// QueryServer defaults (batching: 100 µs window; cache: 32 MB) or a
/// hard off (window 0 / capacity 0).
struct Knobs {
  bool plan_cache = true;
  bool shared_models = true;
  bool batching = true;
  bool inf_cache = true;
  /// Morsel override (0 = engine default). The inference ablation shrinks
  /// this to put per-query launches in the paper's small-batch regime:
  /// with one 16k-row morsel per query, each query is a single inference
  /// call and there is nothing for the batcher to coalesce.
  int64_t morsel_rows = 0;
  /// Run the ModelJoin on the simulated GPU. Coalescing pays off where
  /// launches carry real fixed cost — on an accelerator (paper Figure 8),
  /// not on a host CPU whose per-launch overhead is smaller than a context
  /// switch. GPU cells report modeled-adjusted time (DESIGN.md §2).
  bool gpu = false;
};

struct CellResult {
  double wall_seconds = 0;
  /// GPU cells only: wall − real emulation time + modeled device time
  /// (the DESIGN.md §2 substitution that makes simulated-GPU results
  /// deterministic and host-independent). 0 for CPU cells.
  double adjusted_seconds = 0;
  int64_t queries = 0;
  Latencies latencies;
  int64_t inf_batches = 0;  ///< coalesced inference launches in the timed loop
  int64_t cache_hits = 0;   ///< rows served from the inference result cache
  int64_t kernel_launches = 0;  ///< modeled device kernels (GPU cells only)

  /// Modeled time for GPU cells, wall time otherwise.
  double seconds() const {
    return adjusted_seconds > 0 ? adjusted_seconds : wall_seconds;
  }
  double qps() const {
    return seconds() > 0 ? static_cast<double>(queries) / seconds() : 0;
  }
};

/// Closed-loop serving cell: `sessions` client threads, each draining its
/// share of `total_queries` against one QueryServer configured per `knobs`.
CellResult RunServing(int64_t fact_rows, int sessions, int64_t total_queries,
                      const Knobs& knobs) {
  modeljoin::SharedModelRegistry::Global().Clear();
  inference::InferenceCache::Global().Clear();
  server::QueryServer::Options options;
  options.engine.shared_models = knobs.shared_models;
  options.enable_plan_cache = knobs.plan_cache;
  if (!knobs.batching) options.engine.inference.batch_window_us = 0;
  options.engine.inference.result_cache = knobs.inf_cache;
  if (!knobs.inf_cache) options.inference_cache_mb = 0;
  if (knobs.morsel_rows > 0) options.engine.morsel_rows = knobs.morsel_rows;
  // Fixed worker pool: the executor otherwise sizes to hardware_concurrency,
  // and on a 1-core CI box that means one worker — no morsel scheduling, no
  // concurrent inference calls, nothing for the batcher to coalesce. Eight
  // workers keep the cells comparable across machines.
  options.worker_threads = 8;
  options.max_inflight_queries = 16;
  // The bench measures executor throughput, not admission pushback: size the
  // wait queue so no closed-loop client is ever rejected.
  options.max_queued_queries = static_cast<int>(total_queries) + sessions;
  server::QueryServer srv(options);
  modeljoin::RegisterNativeModelJoin(srv.engine());
  srv.catalog()->CreateOrReplaceTable(MakeIrisTable("fact", fact_rows));
  DeployModel(srv.engine());
  const std::string query = DenseQuery(knobs.gpu);

  {  // Warm-up (untimed): first build + first plan + first cache fill, so
     // the timed loop measures steady-state hits rather than cold misses.
    auto warm = srv.CreateSession();
    auto result = warm->ExecuteQuery(query);
    INDBML_CHECK(result.ok()) << result.status().ToString();
  }
  const int64_t batches0 = CounterValue("inference.batches");
  const int64_t hits0 = CounterValue("inference.cache_hits");
  const device::DeviceStats gpu0 = device::SharedSimGpuDevice()->stats();

  std::vector<std::vector<int64_t>> per_client(static_cast<size_t>(sessions));
  std::atomic<int64_t> remaining{total_queries};
  CellResult cell;
  Stopwatch wall;
  {
    ThreadPool clients(sessions);
    clients.ParallelFor(sessions, [&](int client) {
      auto session = srv.CreateSession();
      auto& lat = per_client[static_cast<size_t>(client)];
      while (remaining.fetch_sub(1) > 0) {
        Stopwatch latency;
        auto result = session->ExecuteQuery(query);
        INDBML_CHECK(result.ok()) << result.status().ToString();
        INDBML_CHECK(result.ValueOrDie().num_rows == fact_rows);
        lat.push_back(latency.ElapsedMicros());
      }
    });
  }
  cell.wall_seconds = static_cast<double>(wall.ElapsedMicros()) / 1e6;
  cell.inf_batches = CounterValue("inference.batches") - batches0;
  cell.cache_hits = CounterValue("inference.cache_hits") - hits0;
  if (knobs.gpu) {
    const device::DeviceStats gpu1 = device::SharedSimGpuDevice()->stats();
    cell.adjusted_seconds = cell.wall_seconds -
                            (gpu1.real_seconds - gpu0.real_seconds) +
                            (gpu1.modeled_seconds - gpu0.modeled_seconds);
    cell.kernel_launches = gpu1.kernel_launches - gpu0.kernel_launches;
  }
  for (auto& lat : per_client) {
    cell.latencies.micros.insert(cell.latencies.micros.end(), lat.begin(),
                                 lat.end());
  }
  cell.queries = static_cast<int64_t>(cell.latencies.micros.size());
  std::sort(cell.latencies.micros.begin(), cell.latencies.micros.end());
  return cell;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// One reported row, kept structured so the table and the JSON mirror agree.
struct RowRec {
  std::string mode;
  int sessions = 1;
  Knobs knobs;
  CellResult cell;
};

void AddRow(ReportTable* table, std::vector<RowRec>* rows,
            const std::string& mode, int sessions, const Knobs& knobs,
            const CellResult& cell) {
  rows->push_back({mode, sessions, knobs, cell});
  auto onoff = [](bool b) { return b ? "on" : "off"; };
  const char* device = knobs.gpu ? "gpu" : "cpu";
  table->AddRow({mode, std::to_string(sessions), device,
                 onoff(knobs.plan_cache), onoff(knobs.shared_models),
                 onoff(knobs.batching), onoff(knobs.inf_cache),
                 std::to_string(cell.queries), FormatSeconds(cell.seconds()),
                 Fmt(cell.qps()), Fmt(cell.latencies.Percentile(0.50)),
                 Fmt(cell.latencies.Percentile(0.95)),
                 Fmt(cell.latencies.Percentile(0.99)),
                 std::to_string(cell.inf_batches),
                 std::to_string(cell.cache_hits)});
  std::printf(
      "[serving] %-11s sessions=%-4d dev=%s plan=%-3s shared=%-3s batch=%-3s "
      "icache=%-3s qps=%9.2f p50=%8.2fms p95=%8.2fms p99=%8.2fms "
      "batches=%-5lld hits=%lld\n",
      mode.c_str(), sessions, device, onoff(knobs.plan_cache),
      onoff(knobs.shared_models), onoff(knobs.batching), onoff(knobs.inf_cache),
      cell.qps(), cell.latencies.Percentile(0.50),
      cell.latencies.Percentile(0.95), cell.latencies.Percentile(0.99),
      static_cast<long long>(cell.inf_batches),
      static_cast<long long>(cell.cache_hits));
  std::fflush(stdout);
}

int WriteJson(const std::vector<RowRec>& rows, int64_t fact_rows,
              int64_t total_queries, double batching_speedup,
              double cache_speedup) {
  const char* dir = std::getenv("RESULTS_DIR");
  std::string results_dir = dir != nullptr ? dir : "results";
  ::mkdir(results_dir.c_str(), 0755);
  std::string path = results_dir + "/bench_serving.json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"fact_rows\": %lld,\n  \"total_queries\": %lld,\n"
               "  \"batching_speedup_8_sessions\": %.4g,\n"
               "  \"cache_speedup_8_sessions\": %.4g,\n  \"cells\": [\n",
               static_cast<long long>(fact_rows),
               static_cast<long long>(total_queries), batching_speedup,
               cache_speedup);
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowRec& r = rows[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"sessions\": %d, \"device\": \"%s\", "
        "\"plan_cache\": %s, "
        "\"shared_models\": %s, \"batching\": %s, \"inference_cache\": %s, "
        "\"queries\": %lld, \"wall_seconds\": %.6g, \"seconds\": %.6g, "
        "\"qps\": %.6g, "
        "\"p50_ms\": %.6g, \"p95_ms\": %.6g, \"p99_ms\": %.6g, "
        "\"inference_batches\": %lld, \"cache_hits\": %lld, "
        "\"kernel_launches\": %lld}%s\n",
        r.mode.c_str(), r.sessions, r.knobs.gpu ? "gpu" : "cpu",
        r.knobs.plan_cache ? "true" : "false",
        r.knobs.shared_models ? "true" : "false",
        r.knobs.batching ? "true" : "false",
        r.knobs.inf_cache ? "true" : "false",
        static_cast<long long>(r.cell.queries), r.cell.wall_seconds,
        r.cell.seconds(), r.cell.qps(), r.cell.latencies.Percentile(0.50),
        r.cell.latencies.Percentile(0.95), r.cell.latencies.Percentile(0.99),
        static_cast<long long>(r.cell.inf_batches),
        static_cast<long long>(r.cell.cache_hits),
        static_cast<long long>(r.cell.kernel_launches),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(json: %s)\n", path.c_str());
  return 0;
}

int Run(bool emit_json) {
  ScaleConfig scale = ScaleConfig::FromEnv();
  // Serving workload: many small inference queries. Per-query fixed costs
  // (parse/bind/optimize + ModelJoin build) are comparable to execution, so
  // the plan cache, shared-model registry and inference batcher/cache — not
  // raw scan speed — decide throughput. That is the regime the serving
  // stack exists for.
  const int64_t fact_rows = scale.paper_scale ? 10000 : 1000;
  const int64_t total_queries = scale.paper_scale ? 512 : 96;

  ReportTable table("serving_throughput",
                    {"mode", "sessions", "device", "plan_cache",
                     "shared_models", "batching", "inf_cache", "queries",
                     "seconds", "qps", "p50_ms", "p95_ms", "p99_ms", "batches",
                     "cache_hits"});
  std::vector<RowRec> rows;

  for (int sessions : {1, 8, 64, 256}) {
    // Shared-model ablation: one registry build per model vs one build per
    // query. The result cache is off in the first two cells, so every query
    // runs the forward pass and the pair differs only in the build. The
    // third cell turns the cache back on for per-query models: each query's
    // model is a new instance with a table of its own, created by its
    // inserts and dropped with the model, so the cell prices that churn.
    Knobs shared;
    shared.inf_cache = false;
    AddRow(&table, &rows, "ablate_shared", sessions, shared,
           RunServing(fact_rows, sessions, total_queries, shared));
    Knobs per_query = shared;
    per_query.shared_models = false;
    AddRow(&table, &rows, "ablate_shared", sessions, per_query,
           RunServing(fact_rows, sessions, total_queries, per_query));
    Knobs per_query_cached = per_query;
    per_query_cached.inf_cache = true;
    AddRow(&table, &rows, "ablate_shared", sessions, per_query_cached,
           RunServing(fact_rows, sessions, total_queries, per_query_cached));
  }

  // ISSUE-10 ablation at 8 sessions: toggle the inference micro-batcher and
  // result cache independently, with the rest of the stack fixed at serving
  // defaults and morsels shrunk so every query issues many small inference
  // calls — the paper's small-per-query-batch regime, where coalescing has
  // something to merge. The cells run the ModelJoin on the simulated GPU:
  // there every kernel dispatch carries the modeled launch overhead that
  // makes small per-query batches expensive in the first place (Figure 8),
  // so QPS is computed over modeled-adjusted time. `batch_only` vs
  // `neither` isolates cross-query coalescing; `both` vs `batch_only`
  // isolates memoized repeat traffic skipping the launches entirely.
  constexpr int kAblateSessions = 8;
  constexpr int64_t kAblateMorselRows = 128;
  Knobs both;
  both.morsel_rows = kAblateMorselRows;
  both.gpu = true;
  CellResult both_cell =
      RunServing(fact_rows, kAblateSessions, total_queries, both);
  AddRow(&table, &rows, "ablate_inf", kAblateSessions, both, both_cell);

  Knobs batch_only = both;
  batch_only.inf_cache = false;
  CellResult batch_cell =
      RunServing(fact_rows, kAblateSessions, total_queries, batch_only);
  AddRow(&table, &rows, "ablate_inf", kAblateSessions, batch_only, batch_cell);

  Knobs cache_only = both;
  cache_only.batching = false;
  CellResult cache_cell =
      RunServing(fact_rows, kAblateSessions, total_queries, cache_only);
  AddRow(&table, &rows, "ablate_inf", kAblateSessions, cache_only, cache_cell);

  Knobs neither = both;
  neither.batching = false;
  neither.inf_cache = false;
  CellResult neither_cell =
      RunServing(fact_rows, kAblateSessions, total_queries, neither);
  AddRow(&table, &rows, "ablate_inf", kAblateSessions, neither, neither_cell);

  table.Finish();
  const double batching_speedup =
      neither_cell.qps() > 0 ? batch_cell.qps() / neither_cell.qps() : 0;
  const double cache_speedup =
      batch_cell.qps() > 0 ? both_cell.qps() / batch_cell.qps() : 0;
  std::printf(
      "[serving] 8-session batching speedup over per-query launches (sim "
      "GPU, modeled time): %.2fx (%lld coalesced launches vs %lld; %lld "
      "device kernels vs %lld)\n",
      batching_speedup, static_cast<long long>(batch_cell.inf_batches),
      static_cast<long long>(neither_cell.inf_batches),
      static_cast<long long>(batch_cell.kernel_launches),
      static_cast<long long>(neither_cell.kernel_launches));
  std::printf(
      "[serving] 8-session cache speedup over batching alone: %.2fx "
      "(%lld rows served without touching the device)\n",
      cache_speedup, static_cast<long long>(both_cell.cache_hits));

  if (emit_json) {
    return WriteJson(rows, fact_rows, total_queries, batching_speedup,
                     cache_speedup);
  }
  return 0;
}

}  // namespace
}  // namespace indbml::benchlib

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  return indbml::benchlib::Run(json);
}
