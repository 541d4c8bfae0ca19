// Internal: instrumentation plumbing for LP simplex implementations.
//
// Not part of the public solver surface — include only from simplex
// implementations (the revised simplex here, and the reference engines
// the tests compare it against). Provides the per-phase sink of capped
// lp.pivot trace instants plus the common per-solve counter scope, so
// every simplex publishes one trace and metric vocabulary (lp.solves,
// lp.pivots, lp.pivot_work, per-phase iteration counts).

#ifndef PSO_SOLVER_LP_INTERNAL_H_
#define PSO_SOLVER_LP_INTERNAL_H_

#include <string>

#include "common/metrics.h"
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

// Publishes one solve's shared counters to the global registry on every
// exit path (optimal, infeasible, unbounded, iteration limit). Counters
// are seed-deterministic totals; the wall-clock span is reported
// separately. `pivot_work` is the solver's FLOPs-equivalent tally: the
// number of matrix/vector cells it actually touched while pivoting (the
// revised simplex counts traversed nonzeros), so simplex implementations
// compare on one axis.
struct SolveScope {
  size_t phase1_iterations = 0;
  size_t total_iterations = 0;
  size_t pivot_work = 0;

  ~SolveScope() {
    metrics::GetCounter("lp.solves").Add(1);
    metrics::GetCounter("lp.pivots").Add(total_iterations);
    metrics::GetCounter("lp.phase1_iterations").Add(phase1_iterations);
    metrics::GetCounter("lp.phase2_iterations")
        .Add(total_iterations - phase1_iterations);
    metrics::GetCounter("lp.pivot_work").Add(pivot_work);
  }
};

}  // namespace pso::lp_internal

#endif  // PSO_SOLVER_LP_INTERNAL_H_
