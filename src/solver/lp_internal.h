// Internal: instrumentation plumbing for LP simplex implementations.
//
// Not part of the public solver surface — include only from simplex
// implementations (the revised simplex here, and the reference engines
// the tests compare it against). Provides the per-phase sink of capped
// lp.pivot trace instants plus the per-solve counter scope, so every
// simplex publishes one trace and metric vocabulary (lp.solves,
// lp.pivots, lp.pivot_work, per-phase iteration counts, and the revised
// simplex's eta updates, bound flips, refactorizations and dual
// iterations).

#ifndef PSO_SOLVER_LP_INTERNAL_H_
#define PSO_SOLVER_LP_INTERNAL_H_

#include <string>

#include "common/metrics.h"
#include "common/progress.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "solver/lp.h"

namespace pso::lp_internal {

// Per-pivot instants emitted into the trace timeline per simplex phase;
// later pivots are counted (lp.pivots) but not traced.
inline constexpr size_t kMaxPivotInstants = 256;

// Per-phase sink of lp.pivot instants handed to a simplex pivot loop.
// `tracing` is the solve span's active(); when false, Wants() costs one
// branch and the caller skips computing the objective.
struct PivotSink {
  bool tracing = false;
  size_t instants_emitted = 0;

  bool Wants() const {
    return tracing && instants_emitted < kMaxPivotInstants;
  }

  void OnPivot(size_t entering, size_t leaving, double objective) {
    ++instants_emitted;
    trace::Instant("lp.pivot", {{"enter", std::to_string(entering)},
                                {"leave", std::to_string(leaving)},
                                {"obj", StrFormat("%.9g", objective)}});
  }
};

// Owns one solve's lp.* counters and publishes them to the global
// registry: the engine calls Publish() at its heartbeat cadence, so a
// registry read mid-solve sees the solve's progress, and the destructor
// publishes the remainder on every exit path (optimal, infeasible,
// unbounded, iteration limit), so totals do not depend on the cadence.
// Counters are seed-deterministic; the wall-clock span is reported
// separately. `pivot_work` is the solver's FLOPs-equivalent tally: the
// number of matrix/vector cells it actually touched while pivoting (the
// revised simplex counts traversed nonzeros), so simplex implementations
// compare on one axis.
struct SolveScope {
  size_t phase1_iterations = 0;
  size_t total_iterations = 0;  // Pivots of every phase.
  size_t pivot_work = 0;
  // Revised-simplex events; each counter appears in the registry only
  // once its event has happened.
  size_t eta_updates = 0;
  size_t bound_flips = 0;
  size_t refactorizations = 0;
  size_t dual_iterations = 0;  // Dual-phase pivots.

  size_t phase2_iterations() const {
    return total_iterations - phase1_iterations - dual_iterations;
  }

  ~SolveScope() {
    metrics::GetCounter("lp.solves").Add(1);
    Publish();
  }

  // Adds each counter's growth since the previous Publish.
  void Publish() {
    static constexpr const char* kNames[kCounters] = {
        "lp.pivots",            "lp.phase1_iterations",
        "lp.phase2_iterations", "lp.pivot_work",
        "lp.eta_updates",       "lp.bound_flips",
        "lp.refactorizations",  "lp.dual_iterations"};
    const size_t totals[kCounters] = {
        total_iterations, phase1_iterations, phase2_iterations(),
        pivot_work,       eta_updates,       bound_flips,
        refactorizations, dual_iterations};
    for (size_t i = 0; i < kCounters; ++i) {
      // The first four exist after any solve; the revised-simplex event
      // counters from their first event on.
      if (i < 4 || totals[i] != published_[i]) {
        progress::PublishDelta(kNames[i], totals[i], &published_[i]);
      }
    }
  }

 private:
  static constexpr size_t kCounters = 8;
  size_t published_[kCounters] = {};
};

}  // namespace pso::lp_internal

#endif  // PSO_SOLVER_LP_INTERNAL_H_
