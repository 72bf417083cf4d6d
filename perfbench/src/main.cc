// perfbench — the repository benchmark.
//
//   perfbench --workload <infer_batch|mltosql_dense|serve_zipf> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Sets the workload up kSetupRepeats times (setup_s is the median), computes
// reference predictions, then runs the workload's closed loop for --seconds
// with tracing off and reports the end-to-end metrics. With --trace 1 it
// runs the loop a second time under trace::Start() with benchmark-owned
// spans around the layer entry points, profiles one query per kind, writes
// the Chrome trace to --trace-out and reports the per-layer metrics instead.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "harness.h"
#include "stats.h"

namespace perfbench {
namespace {

using indbml::Status;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out = "perfbench.trace.json";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Runs one timed phase of the workload's closed loop and records wall
/// time, process CPU time, the tracked-memory peak and metric deltas.
Status RunPhase(Workload* workload, double seconds, Phase* phase) {
  indbml::metrics::Registry& registry = indbml::metrics::Registry::Global();
  const std::map<std::string, int64_t> before = registry.FlatValues();
  indbml::MemoryTracker& tracker = indbml::MemoryTracker::Global();
  phase->baseline_bytes = tracker.current_bytes();
  tracker.ResetPeak();
  const double cpu0 = ProcessCpuSeconds();
  phase->clock.Restart();
  INDBML_RETURN_NOT_OK(workload->Loop(seconds, phase));
  phase->wall_s = phase->clock.ElapsedSeconds();
  phase->cpu_s = ProcessCpuSeconds() - cpu0;
  phase->NotePeak();
  for (const auto& [name, value] : registry.FlatValues()) {
    auto it = before.find(name);
    phase->counters[name] = value - (it == before.end() ? 0 : it->second);
  }
  return Status::OK();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> EndToEnd(const Workload& workload, const std::vector<double>& setup_s,
                             const Phase& p) {
  const Tail tail = TailOf(p.Latencies());
  char tail_note[96];
  std::snprintf(tail_note, sizeof(tail_note), "p%.3f of n=%lld, median of %lld block(s)",
                tail.percentile, static_cast<long long>(tail.samples),
                static_cast<long long>(tail.blocks));
  const std::string rounds =
      "median over rounds of " + std::to_string(workload.RoundQueries()) + " queries";
  char peak_note[96];
  std::snprintf(peak_note, sizeof(peak_note), "tracked; %.3f MB above the post-setup level",
                static_cast<double>(p.peak_bytes - p.baseline_bytes) / 1e6);
  return {
      {"setup_s", Median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"rows_per_s", p.MedianRoundRate(workload.RoundQueries(), true), "rows/s", rounds},
      {"qps", p.MedianRoundRate(workload.RoundQueries(), false), "1/s", rounds},
      {"p50_ms", Median(p.Latencies()), "ms", ""},
      {"tail_ms", tail.value, "ms", tail.defined ? tail_note : "undefined: too few samples"},
      {"peak_mem_mb", static_cast<double>(p.peak_bytes) / 1e6, "MB", peak_note},
  };
}

/// Per-layer metrics: timings and counter deltas of the traced phase `t`,
/// per-kind latency of the untraced phase `u`, and the profiled queries.
std::vector<Metric> PerLayer(const Workload& workload, const Phase& u, const Phase& t,
                             const ProfileCounts& prof) {
  const double queries = static_cast<double>(t.Queries());
  int64_t mj_queries = 0;
  const std::vector<std::string> kinds = workload.KindNames();
  for (size_t k = 0; k < kinds.size(); ++k) {
    if (workload.IsModelJoinKind(static_cast<int>(k))) {
      mj_queries += t.Queries(static_cast<int>(k));
    }
  }
  auto c = [&](const std::string& name) { return static_cast<double>(t.Counter(name)); };
  const double plan_hits = c("server.plan_cache_hits");
  const double plan_lookups = plan_hits + c("server.plan_cache_misses");
  const double cache_hits = c("inference.cache_hits");
  const double cache_lookups = cache_hits + c("inference.cache_misses");
  const double mj_rows = c("modeljoin.rows");
  const double capi_rows = c("capi.rows");
  const double infer_micros = c("modeljoin.infer_micros.sum") -
                              c("inference.batch_wait_micros.sum");
  const double untraced_rps = Ratio(static_cast<double>(u.Rows()), u.wall_s);
  const double traced_rps = Ratio(static_cast<double>(t.Rows()), t.wall_s);
  const double nproc = static_cast<double>(indbml::HardwareConcurrency());
  auto kind_p50 = [&](const std::string& kind) {
    for (size_t k = 0; k < kinds.size(); ++k) {
      if (kinds[k] == kind) return Median(u.Latencies(static_cast<int>(k)));
    }
    return 0.0;
  };
  const double profiled = static_cast<double>(prof.queries);
  return {
      {"sql.plan_us", t.times.MeanMicros("sql.plan"), "us", "PlanQuery wall"},
      {"server.plan_cache_hit_frac", Ratio(plan_hits, plan_lookups), "fraction", ""},
      {"server.submit_us", t.times.MeanMicros("server.submit"), "us", "Session::Submit"},
      {"server.wait_us", t.times.MeanMicros("server.wait"), "us", "QueryHandle::Wait"},
      {"server.admission_rejects", c("server.admission_rejects"), "count", ""},
      {"exec.execute_us", t.times.MeanMicros("exec.execute"), "us", "ExecutePlan wall"},
      {"exec.cpu_util", Ratio(t.cpu_s, t.wall_s * nproc), "fraction",
       "process CPU / (wall x nproc)"},
      {"exec.joined_rows_per_query", Ratio(static_cast<double>(prof.join_rows), profiled),
       "rows", "exact, profiled query"},
      {"exec.join_ns_per_row",
       Ratio(static_cast<double>(prof.join_self_nanos), static_cast<double>(prof.join_rows)),
       "ns/row", "join self time over workers"},
      {"exec.aggregate_input_rows_per_query",
       Ratio(static_cast<double>(prof.aggregate_input_rows), profiled), "rows",
       "exact, profiled query"},
      {"exec.buffer_allocs_per_query", Ratio(c("buffer.allocations"), queries), "count", ""},
      {"exec.buffer_bytes_per_query", Ratio(c("buffer.allocated_bytes"), queries), "B", ""},
      {"exec.flatten_rows_per_query", Ratio(c("vector.flatten_rows"), queries), "rows", ""},
      {"modeljoin.build_us",
       Ratio(c("modeljoin.build_micros.sum"), static_cast<double>(mj_queries)), "us",
       "worker build time per ModelJoin query"},
      {"modeljoin.convert_ns_per_row", Ratio(c("modeljoin.convert_micros.sum") * 1e3, mj_rows),
       "ns/row", ""},
      {"inference.infer_ns_per_row", Ratio(infer_micros * 1e3, mj_rows), "ns/row",
       "ModelJoin inference minus batch wait"},
      {"inference.cache_hit_frac", Ratio(cache_hits, cache_lookups), "fraction", ""},
      {"inference.batch_rows_mean",
       Ratio(c("inference.batch_rows.sum"), c("inference.batch_rows.count")), "rows", ""},
      {"inference.batch_wait_us",
       Ratio(c("inference.batch_wait_micros.sum"), c("inference.batch_wait_micros.count")),
       "us", "per waiting call"},
      {"inference.runs_per_query", Ratio(c("inference.runs"), queries), "count", ""},
      {"capi.convert_ns_per_row", Ratio(c("capi.convert_micros.sum") * 1e3, capi_rows),
       "ns/row", ""},
      {"capi.run_ns_per_row", Ratio(c("capi.run_micros.sum") * 1e3, capi_rows), "ns/row", ""},
      {"trace.overhead_frac", untraced_rps > 0 ? 1.0 - traced_rps / untraced_rps : 0,
       "fraction", "1 - traced/untraced rows_per_s"},
      {"p50_ms.mj_dense", kind_p50("mj_dense"), "ms", "untraced phase"},
      {"p50_ms.capi_dense", kind_p50("capi_dense"), "ms", "untraced phase"},
      {"p50_ms.mj_lstm", kind_p50("mj_lstm"), "ms", "untraced phase"},
  };
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %-9s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Run(const Args& args) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%d simd=%s "
              "simd_enabled=%s build=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, indbml::HardwareConcurrency(),
              indbml::simd::kBackend, indbml::simd::UseSimd() ? "on" : "off",
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload.reset();
    indbml::Stopwatch watch;
    workload = MakeWorkload(args.workload, args.seed);
    Status st = workload->SetUp();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(watch.ElapsedSeconds());
  }
  Status st = workload->PrepareChecks();

  Phase untraced;
  if (st.ok()) st = RunPhase(workload.get(), args.seconds, &untraced);
  Phase traced;
  ProfileCounts profile;
  if (st.ok() && args.trace) {
    indbml::trace::Clear();
    indbml::trace::Start();
    st = RunPhase(workload.get(), args.seconds, &traced);
    if (st.ok()) st = workload->MeasureOutOfBand(&traced.times);
    indbml::trace::Stop();
    if (st.ok()) st = indbml::trace::WriteTo(args.trace_out);
    if (st.ok()) st = workload->Profile(&profile);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  const int64_t wrong = workload->FinishChecks();
  const int64_t attempted = untraced.attempted + traced.attempted;
  const int64_t failed = untraced.failed + traced.failed + wrong;

  const std::vector<Metric> end_to_end = EndToEnd(*workload, setup_s, untraced);
  PrintTable("end-to-end (tracing off):", end_to_end);
  std::vector<Metric> extra = {
      {"error_rate", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "fraction", std::to_string(failed) + " failed of " + std::to_string(attempted)}};
  const Tail whole_run = TailRule(untraced.Latencies());
  if (whole_run.samples >= 2 * kTailBlock) {
    char note[64];
    std::snprintf(note, sizeof(note), "unblocked p%.3f of n=%lld", whole_run.percentile,
                  static_cast<long long>(whole_run.samples));
    extra.push_back({"tail_ms.whole_run", whole_run.value, "ms", note});
  }
  const std::vector<std::string> kinds = workload->KindNames();
  for (size_t k = 0; kinds.size() > 1 && k < kinds.size(); ++k) {
    extra.push_back({"p50_ms." + kinds[k], Median(untraced.Latencies(static_cast<int>(k))),
                     "ms", std::to_string(untraced.Queries(static_cast<int>(k))) + " queries"});
  }
  PrintTable("", extra);
  std::vector<Metric> per_layer;
  if (args.trace) {
    per_layer = PerLayer(*workload, untraced, traced, profile);
    PrintTable("per-layer (traced run):", per_layer);
    std::printf("trace: %s\n", args.trace_out.c_str());
  }
  std::printf("correctness: %s (%lld failed of %lld attempted)\n",
              failed == 0 ? "PASS" : "FAIL", static_cast<long long>(failed),
              static_cast<long long>(attempted));
  PrintJson(failed == 0, attempted, failed, args.trace ? per_layer : end_to_end);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  const std::vector<std::string> names = perfbench::WorkloadNames();
  if (!perfbench::ParseArgs(argc, argv, &args) ||
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <infer_batch|mltosql_dense|serve_zipf> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
