// Conflict-driven clause learning SAT engine: the search behind
// SatSolver::Solve.
//  * two-watched-literal unit propagation (lazy watch repair, no
//    occurrence scans on satisfied clauses);
//  * first-UIP conflict analysis producing one learned clause per
//    conflict, asserted after a non-chronological backjump to the
//    second-highest decision level in the clause;
//  * VSIDS branching: per-variable activity bumped on conflict-side
//    variables and geometrically decayed, served from an indexed binary
//    max-heap with deterministic index tie-breaking;
//  * phase saving: a variable re-enters the search with the polarity it
//    last held;
//  * Luby-sequence restarts (unit kCdclRestartUnit conflicts);
//  * learned-clause DB reduction at restart boundaries once the learned
//    count passes an adaptive limit (lowest-activity half evicted;
//    binary and reason clauses are kept).
//
// Fully deterministic: no randomness anywhere, so same instance => same
// search on every run and every machine (pinned by cdcl_test).

#ifndef PSO_SOLVER_CDCL_H_
#define PSO_SOLVER_CDCL_H_

#include <cstddef>

#include "common/result.h"
#include "solver/sat.h"

namespace pso {

/// Decides `instance` (SatSolver builds well-formed ones; prefer
/// SatSolver::Solve). Returns kResourceExhausted when
/// options.max_decisions ran out before an answer.
[[nodiscard]] Result<SatSolution> SolveCdcl(const SatInstance& instance,
                                            const SatSolveOptions& options);

/// Multiplicative VSIDS decay: activities shrink by this factor per
/// conflict (implemented as a growing bump increment plus rescaling).
inline constexpr double kCdclVarDecay = 0.95;

/// Learned-clause activity decay per conflict.
inline constexpr double kCdclClauseDecay = 0.999;

/// Luby restart unit: restart i fires after kCdclRestartUnit * luby(2, i)
/// conflicts since the previous restart.
inline constexpr size_t kCdclRestartUnit = 100;

/// Learned-DB reduction threshold floor and growth: a reduction pass
/// (at a restart boundary) triggers once the learned count exceeds
/// max(kCdclReduceFloor, clauses / 3), and the limit grows by
/// kCdclReduceGrowth after every pass.
inline constexpr size_t kCdclReduceFloor = 2000;
inline constexpr double kCdclReduceGrowth = 1.5;

}  // namespace pso

#endif  // PSO_SOLVER_CDCL_H_
