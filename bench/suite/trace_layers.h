// Splits a traced run's wall clock across the repository's layers.
//
// A span's self time is its duration minus the durations of its child
// spans on the same thread. Children on other threads (parallel chunks
// whose parent is the launching span) ran concurrently, so they are not
// subtracted; they add their own thread time instead. Every span belongs
// to the layer named by its first dotted component (see LayerOf); the
// benchmark's root span "bench.<workload>" and spans of unknown layers
// make up the unattributed remainder. Fractions are shares of the total
// thread time the spans cover, which for a single-threaded workload is
// the root span's duration.

#ifndef PSO_BENCH_SUITE_TRACE_LAYERS_H_
#define PSO_BENCH_SUITE_TRACE_LAYERS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/trace.h"

namespace pso::bench {

/// The layers, in report order.
extern const char* const kLayers[6];

/// The layer a span name belongs to, or "" for the unattributed part.
std::string LayerOf(const std::string& span_name);

struct LayerSplit {
  std::map<std::string, double> self_s;  ///< Per layer, every layer present.
  double unattributed_s = 0.0;
  double total_s = 0.0;  ///< Thread time covered by spans.
  double root_s = 0.0;   ///< Wall time of the root span.
  size_t spans = 0;
  uint64_t dropped = 0;  ///< Events the collector had no room for.
  /// Self time by span name, for the report's breakdown.
  std::map<std::string, double> by_name_s;

  double Fraction(const std::string& layer) const;
  double unattributed_fraction() const {
    return total_s > 0.0 ? unattributed_s / total_s : 0.0;
  }
};

LayerSplit SplitLayers(const std::vector<trace::Event>& events,
                       uint64_t dropped);

/// Turns the global trace collector on for the timed part of a traced run
/// and wraps it in the root span "bench.<workload>". Inactive (and free)
/// when `enabled` is false.
class TracedSection {
 public:
  TracedSection(bool enabled, const std::string& workload);
  ~TracedSection();
  TracedSection(const TracedSection&) = delete;
  TracedSection& operator=(const TracedSection&) = delete;

  /// Closes the root span, stops collecting, writes the Chrome trace to
  /// `chrome_path` and returns the layer split; nullopt when inactive.
  std::optional<LayerSplit> Finish(const std::string& chrome_path);

 private:
  bool enabled_;
  std::string root_name_;
  std::optional<trace::Span> root_;
};

}  // namespace pso::bench

#endif  // PSO_BENCH_SUITE_TRACE_LAYERS_H_
