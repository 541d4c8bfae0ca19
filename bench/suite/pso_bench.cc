// pso_bench — the repository benchmark.
//
//   pso_bench --out bench-out [--seed N] [--workload NAME] [--seconds S]
//             [--trace [0|1]] [--smoke]
//
// Runs each workload (all five by default; see workloads.cc), checks every
// output, prints every metric with its unit, and writes
// <out>/results.json. With --trace each workload runs twice, untraced and
// then traced: the traced run records trace spans, writes
// <out>/trace_<workload>.json (Chrome trace format) and reports the
// per-layer metrics, each layer's self time, the unattributed remainder
// and the tracing overhead. --smoke measures each workload for 2 s.
//
// After each workload the last line printed is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace the per-layer metrics,
// that BENCHMARK.json names. The exit status is 0 only if every check of
// every workload passed.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/str_util.h"
#include "json.h"
#include "tools/flags.h"
#include "workloads.h"

namespace pso::bench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics of the result line, as BENCHMARK.json lists them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
};

// Per-layer metrics that apply to one workload read 0 on the others, so
// all of them are shares, counts or sizes; the per-layer timings are in
// results.json and the printed report.
constexpr MetricSpec kPerLayer[] = {
    {"service.self_fraction", "fraction"},
    {"dp.self_fraction", "fraction"},
    {"recon.self_fraction", "fraction"},
    {"solver.self_fraction", "fraction"},
    {"census.self_fraction", "fraction"},
    {"common.self_fraction", "fraction"},
    {"unattributed_fraction", "fraction"},
    {"trace.overhead_fraction", "fraction"},
    {"service.batch_size_mean", "queries"},
    {"service.stalled_batch_fraction", "fraction"},
    {"service.wire_bytes_per_query", "bytes"},
    {"service.loadgen_cpu_fraction", "fraction"},
    {"dp.refused_fraction", "fraction"},
    {"solver.lp.pivots", "count"},
    {"solver.lp.pivot_work", "count"},
    {"solver.lp.refactorizations", "count"},
    {"solver.lp.eta_updates", "count"},
    {"recon.lsq_query_bytes_scanned", "bytes"},
    {"census.solutions_enumerated", "count"},
    {"census.blocks_exhausted", "count"},
    {"census.unique_fraction", "fraction"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: pso_bench [--out DIR] [--seed N] [--workload NAME] "
               "[--seconds S] [--trace [0|1]] [--smoke]\n");
  return 2;
}

std::string LoopbackDescription() {
  std::ifstream mtu_file("/sys/class/net/lo/mtu");
  std::string mtu;
  mtu_file >> mtu;
  return "TCP over 127.0.0.1 (interface lo" +
         (mtu.empty() ? std::string() : ", mtu " + mtu) +
         "); generator sockets set TCP_NODELAY (and on qs_wide TCP_QUICKACK "
         "after every read), the daemon's set neither";
}

Json MetricJson(const Metric& m) {
  Json j = Json::Object();
  j.Set("value", Json::Number(m.value));
  j.Set("unit", Json::String(m.unit));
  if (m.samples > 0) j.Set("samples", Json::Number(double(m.samples)));
  return j;
}

Json MetricsJson(const std::vector<Metric>& metrics) {
  Json j = Json::Object();
  for (const Metric& m : metrics) j.Set(m.name, MetricJson(m));
  return j;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("  %s:\n", title);
  for (const Metric& m : metrics) {
    std::printf("    %-34s %14.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf("  (n=%zu)", m.samples);
    std::printf("\n");
  }
}

// The per-layer metrics of a traced run, completed with the layer shares,
// the unattributed remainder and the tracing overhead.
std::vector<Metric> LayerMetrics(const WorkloadRun& traced,
                                 const WorkloadRun& untraced) {
  std::vector<Metric> out = traced.layers;
  if (traced.split) {
    for (const char* layer : kLayers) {
      out.push_back({std::string(layer) + ".self_fraction",
                     traced.split->Fraction(layer), "fraction"});
    }
    out.push_back({"unattributed_fraction",
                   traced.split->unattributed_fraction(), "fraction"});
  }
  const double overhead =
      untraced.cost_per_op_s > 0.0
          ? traced.cost_per_op_s / untraced.cost_per_op_s - 1.0
          : 0.0;
  out.push_back({"trace.overhead_fraction", overhead, "fraction"});
  return out;
}

// The result line's metrics: exactly the listed names, in list order.
template <size_t N>
Json ResultMetrics(const MetricSpec (&specs)[N],
                   const std::vector<Metric>& measured, bool fill_missing) {
  Json j = Json::Object();
  for (const MetricSpec& spec : specs) {
    const Metric* found = nullptr;
    for (const Metric& m : measured) {
      if (m.name == spec.name) found = &m;
    }
    if (found == nullptr && !fill_missing) continue;
    Json v = Json::Object();
    v.Set("value", Json::Number(found != nullptr ? found->value : 0.0));
    v.Set("unit", Json::String(spec.unit));
    j.Set(spec.name, std::move(v));
  }
  return j;
}

int Main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  std::vector<std::string> errors;
  const std::vector<tools::FlagSpec> specs = {
      {"out", tools::FlagSpec::Type::kString},
      {"seed", tools::FlagSpec::Type::kInt},
      {"workload", tools::FlagSpec::Type::kString},
      {"seconds", tools::FlagSpec::Type::kDouble},
      {"trace", tools::FlagSpec::Type::kBool},
      {"smoke", tools::FlagSpec::Type::kBool}};
  if (!tools::ValidateFlags(flags, specs, &errors) ||
      !flags.positional().empty()) {
    for (const std::string& e : errors) std::fprintf(stderr, "pso_bench: %s\n", e.c_str());
    return Usage();
  }
  const bool smoke = flags.GetBool("smoke", false);
  const bool trace = flags.GetBool("trace", false);
  RunOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", smoke ? 2.0 : 10.0);
  options.psoctl = PSO_BENCH_PSOCTL;
  if (options.seconds <= 0.0 || options.seconds > 60.0) {
    std::fprintf(stderr, "pso_bench: --seconds must be in (0, 60]\n");
    return Usage();
  }
  if (::access(options.psoctl.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "pso_bench: daemon binary %s is missing\n",
                 options.psoctl.c_str());
    return 2;
  }
  std::vector<const Workload*> selected;
  const std::string only = flags.GetString("workload", "");
  for (const Workload& w : Workloads()) {
    if (only.empty() || only == w.name) selected.push_back(&w);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "pso_bench: unknown workload '%s'\n", only.c_str());
    return Usage();
  }

  const std::filesystem::path out_dir = flags.GetString("out", "bench-out");
  const std::filesystem::path work_dir =
      out_dir / StrFormat("tmp.%d", static_cast<int>(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "pso_bench: cannot create %s: %s\n",
                 work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  options.work_dir = work_dir.string();

  const std::string loopback = LoopbackDescription();
  std::printf("pso_bench: seed=%llu seconds=%g trace=%d hardware_threads=%zu\n",
              static_cast<unsigned long long>(options.seed), options.seconds,
              trace ? 1 : 0, ThreadPool::HardwareThreads());
  std::printf("transport: %s\n", loopback.c_str());

  Json results = Json::Object();
  results.Set("schema", Json::Number(1));
  results.Set("seed", Json::Number(double(options.seed)));
  results.Set("seconds", Json::Number(options.seconds));
  results.Set("traced", Json::Bool(trace));
  results.Set("transport", Json::String(loopback));
  Json& all = results.Set("workloads", Json::Object());
  bool all_ok = true;
  for (const Workload* w : selected) {
    std::printf("\n== %s: %s\n", w->name, w->why);
    std::fflush(stdout);
    WorkloadRun run = w->run(options);
    std::vector<Metric> layers;
    if (trace) {
      RunOptions traced_options = options;
      traced_options.traced = true;
      traced_options.trace_path =
          (out_dir / (std::string("trace_") + w->name + ".json")).string();
      WorkloadRun traced = w->run(traced_options);
      layers = LayerMetrics(traced, run);
      run.attempted += traced.attempted;
      run.failed += traced.failed;
      for (std::string& e : traced.errors) run.errors.push_back("traced run: " + e);
      run.split = traced.split;
      run.notes.insert(run.notes.end(), traced.notes.begin(), traced.notes.end());
    }
    const bool ok = run.ok();
    all_ok = all_ok && ok;

    std::printf("  correct: %s  attempted: %llu  failed: %llu\n",
                ok ? "yes" : "NO", (unsigned long long)run.attempted,
                (unsigned long long)run.failed);
    for (const std::string& e : run.errors) std::printf("  FAILED: %s\n", e.c_str());
    for (const std::string& n : run.notes) std::printf("  %s\n", n.c_str());
    PrintMetrics("end-to-end (untraced)", run.end_to_end);
    PrintMetrics("workload view", run.workload);
    if (trace) {
      PrintMetrics("per layer (traced run)", layers);
      if (run.split) {
        std::printf("  self time by span (%zu spans, %llu dropped), of %.3f s "
                    "thread time in a %.3f s root span:\n",
                    run.split->spans,
                    (unsigned long long)run.split->dropped,
                    run.split->total_s, run.split->root_s);
        for (const auto& [name, s] : run.split->by_name_s) {
          std::printf("    %-34s %10.4f s  %5.1f%%\n", name.c_str(), s,
                      100.0 * s / run.split->total_s);
        }
      }
    }

    Json entry = Json::Object();
    entry.Set("why", Json::String(w->why));
    entry.Set("correct", Json::Bool(ok));
    entry.Set("attempted", Json::Number(double(run.attempted)));
    entry.Set("failed", Json::Number(double(run.failed)));
    Json errors_json = Json::Array();
    for (const std::string& e : run.errors) errors_json.Push(Json::String(e));
    entry.Set("errors", std::move(errors_json));
    entry.Set("metrics", MetricsJson(run.end_to_end));
    entry.Set("workload_metrics", MetricsJson(run.workload));
    if (trace) {
      entry.Set("per_layer", MetricsJson(layers));
      if (run.split) {
        Json self = Json::Object();
        for (const auto& [layer, s] : run.split->self_s) self.Set(layer, Json::Number(s));
        self.Set("unattributed", Json::Number(run.split->unattributed_s));
        entry.Set("layer_self_s", std::move(self));
      }
    }
    Json notes = Json::Array();
    for (const std::string& n : run.notes) notes.Push(Json::String(n));
    entry.Set("notes", std::move(notes));
    all.Set(w->name, std::move(entry));

    Json line = Json::Object();
    line.Set("correct", Json::Bool(ok));
    line.Set("attempted", Json::Number(double(std::max<uint64_t>(run.attempted, 1))));
    line.Set("failed", Json::Number(double(run.failed)));
    line.Set("metrics", trace ? ResultMetrics(kPerLayer, layers, true)
                              : ResultMetrics(kEndToEnd, run.end_to_end, false));
    std::printf("%s\n", line.Dump().c_str());
    std::fflush(stdout);
  }

  std::filesystem::remove_all(work_dir, ec);
  const std::filesystem::path results_path = out_dir / "results.json";
  std::ofstream(results_path) << results.Dump() << "\n";
  std::fprintf(stderr, "pso_bench: wrote %s\n", results_path.c_str());
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace pso::bench

int main(int argc, char** argv) { return pso::bench::Main(argc, argv); }
