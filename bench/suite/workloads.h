// The benchmark's five workloads. Each builds its inputs from the seed,
// sets up the system under test (timed several times; the median is
// setup_s), measures for the requested number of seconds, and checks
// every output against an oracle.

#ifndef PSO_BENCH_SUITE_WORKLOADS_H_
#define PSO_BENCH_SUITE_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace_layers.h"

namespace pso::bench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;  ///< Length of the measured phases.
  std::string psoctl;     ///< The daemon binary.
  std::string work_dir;   ///< Private directory for port files.
  bool traced = false;
  std::string trace_path;  ///< Chrome trace file of a traced run.
};

/// One reported number. `samples` is the count a percentile or median was
/// taken over (0 when it is not a statistic of samples).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// What one run of a workload measured and checked.
struct WorkloadRun {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< Every failed check, in order.
  /// The cost of one operation (1 / saturation rate, or one repetition);
  /// the traced and untraced values give the tracing overhead.
  double cost_per_op_s = 0.0;
  std::vector<Metric> end_to_end;  ///< The metrics BENCHMARK.json names.
  std::vector<Metric> workload;    ///< This workload's own end-to-end view.
  std::vector<Metric> layers;      ///< Per-layer metrics.
  std::optional<LayerSplit> split;  ///< Traced runs only.
  std::vector<std::string> notes;   ///< Context lines for the report.

  bool ok() const { return errors.empty() && failed == 0; }
  void Fail(std::string why) { errors.push_back(std::move(why)); }
};

struct Workload {
  const char* name;
  const char* why;
  WorkloadRun (*run)(const RunOptions& options);
};

/// All workloads, in run order.
const std::vector<Workload>& Workloads();

}  // namespace pso::bench

#endif  // PSO_BENCH_SUITE_WORKLOADS_H_
