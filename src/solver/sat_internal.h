// Internals shared by SAT search implementations (the CDCL engine here,
// and the reference engines the tests compare it against): the
// tri-state assignment cell, the per-solve trace budget, and the
// publisher of the search counters.

#ifndef PSO_SOLVER_SAT_INTERNAL_H_
#define PSO_SOLVER_SAT_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "common/metrics.h"
#include "common/progress.h"
#include "solver/sat.h"

namespace pso::sat_internal {

/// Tri-state variable assignment.
enum class Assign : int8_t { kUnset = -1, kFalse = 0, kTrue = 1 };

/// Per-solve cap on decision/conflict/restart instants emitted into the
/// trace timeline; later events are counted (sat.*) but not traced.
inline constexpr size_t kMaxSatInstants = 256;

/// Search totals an engine accumulates during one solve. The totals are
/// input-deterministic, so the metric registry's sums stay reproducible.
struct SearchStats {
  size_t decisions = 0;
  size_t propagations = 0;
  size_t backtracks = 0;
  size_t conflicts = 0;
  size_t learned_clauses = 0;  ///< CDCL only.
  size_t restarts = 0;         ///< CDCL only.
  size_t backjump_levels = 0;  ///< CDCL only: total levels jumped over.

  /// Copies the shared totals onto a finished solution.
  void CopyTo(SatSolution& out) const {
    out.decisions = decisions;
    out.propagations = propagations;
    out.backtracks = backtracks;
    out.conflicts = conflicts;
    out.learned_clauses = learned_clauses;
    out.restarts = restarts;
  }
};

/// Publishes one solve's sat.* counters to the global registry: the
/// engine calls Publish() at its heartbeat cadence, so a registry read
/// mid-solve sees the search's progress, and the destructor publishes the
/// remainder on every exit path (including kResourceExhausted), so totals
/// do not depend on the cadence. The clause-learning counters are
/// published only when `cdcl` is set, so a search without learning does
/// not materialize them in the registry.
struct MetricsPublisher {
  const SearchStats* stats;
  bool cdcl = false;
  SearchStats published{};  ///< Totals already added to the registry.

  ~MetricsPublisher() {
    metrics::GetCounter("sat.solves").Add(1);
    Publish();
  }

  /// Adds each counter's growth since the previous Publish.
  void Publish() {
    progress::PublishDelta("sat.decisions", stats->decisions,
                           &published.decisions);
    progress::PublishDelta("sat.propagations", stats->propagations,
                           &published.propagations);
    progress::PublishDelta("sat.backtracks", stats->backtracks,
                           &published.backtracks);
    progress::PublishDelta("sat.conflicts", stats->conflicts,
                           &published.conflicts);
    if (cdcl) {
      progress::PublishDelta("sat.learned_clauses", stats->learned_clauses,
                             &published.learned_clauses);
      progress::PublishDelta("sat.restarts", stats->restarts,
                             &published.restarts);
      progress::PublishDelta("sat.backjump_levels", stats->backjump_levels,
                             &published.backjump_levels);
    }
  }
};

}  // namespace pso::sat_internal

#endif  // PSO_SOLVER_SAT_INTERNAL_H_
