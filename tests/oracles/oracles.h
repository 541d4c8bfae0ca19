// Test-only reference engines for the production solvers.
//
// The dense two-phase tableau simplex and the chronological DPLL search
// are the differential oracles of the sparse revised simplex
// (LpProblem::Solve) and the CDCL engine (SatSolver::Solve). They live in
// the pso_oracles library, which only tests/ and fuzz/ link, so no
// production path can select them. They publish the same solver counters
// (lp.solves, sat.solves, ...) as the engines they check. The library
// also holds the solvers' test input formats: the DIMACS CNF codec
// (oracles/dimacs.h) and the PSOLP1 LP codec (oracles/lp_io.h), the
// scan-every-constraint CSP search (oracles/csp_reference.h) and the
// reference reconstruction decoders (oracles/recon_reference.h).
//
// Differential tests iterate kLpEngines / kSatEngines, which pair each
// oracle with its production engine behind one function signature.

#ifndef PSO_TESTS_ORACLES_ORACLES_H_
#define PSO_TESTS_ORACLES_ORACLES_H_

#include "common/result.h"
#include "solver/lp.h"
#include "solver/sat.h"

namespace pso::oracles {

/// The dense two-phase tableau simplex. Returns lp.build_status() when the
/// problem is malformed. Publishes lp.tableau_rows / lp.tableau_cols
/// besides the shared lp.* counters.
[[nodiscard]] Result<LpSolution> DenseSimplex(const LpProblem& lp);

/// Chronological DPLL with occurrence-list unit propagation and static
/// occurrence-count branching. Returns solver.build_status() when the
/// formula is malformed. Leaves learned_clauses and restarts at zero and
/// reports conflicts == backtracks (every conflict is one chronological
/// flip).
[[nodiscard]] Result<SatSolution> Dpll(const SatSolver& solver,
                                       const SatSolveOptions& options = {});

/// The production LP engine behind the oracle's signature.
[[nodiscard]] inline Result<LpSolution> RevisedSimplex(const LpProblem& lp) {
  return lp.Solve();
}

/// The production SAT engine behind the oracle's signature.
[[nodiscard]] inline Result<SatSolution> Cdcl(
    const SatSolver& solver, const SatSolveOptions& options = {}) {
  return solver.Solve(options.max_decisions);
}

using LpSolveFn = Result<LpSolution> (*)(const LpProblem&);
using SatSolveFn = Result<SatSolution> (*)(const SatSolver&,
                                           const SatSolveOptions&);

/// A named engine: the name keys test instantiations and messages.
struct LpEngine {
  const char* name;
  LpSolveFn solve;
};
struct SatEngine {
  const char* name;
  SatSolveFn solve;
};

/// Oracle first, production engine second.
inline constexpr LpEngine kLpEngines[] = {{"dense", &DenseSimplex},
                                          {"sparse", &RevisedSimplex}};
inline constexpr SatEngine kSatEngines[] = {{"dpll", &Dpll},
                                            {"cdcl", &Cdcl}};

}  // namespace pso::oracles

#endif  // PSO_TESTS_ORACLES_ORACLES_H_
