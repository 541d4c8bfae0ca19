// Fuzz target: DIMACS CNF parser (oracles/dimacs.h).
//
// Any byte string must either parse or fail with a Status — never crash.
// Accepted formulas must round-trip through ToDimacs and, when small,
// solve on CDCL and on its DPLL oracle: each SAT verdict must come with
// a genuine model, and the two must agree on satisfiability whenever
// both decide within budget.

#include <cstdint>
#include <cstdlib>
#include <string>

#include "oracles/dimacs.h"
#include "oracles/oracles.h"

namespace {

// -1 = UNSAT, 1 = SAT, 0 = undecided (budget or error).
int SolveOn(pso::oracles::SatSolveFn solve, const pso::DimacsCnf& cnf) {
  pso::SatSolver solver = pso::BuildSatSolver(cnf);
  if (!solver.build_status().ok()) std::abort();
  pso::SatSolveOptions options;
  options.max_decisions = 20000;
  pso::Result<pso::SatSolution> sol = solve(solver, options);
  if (!sol.ok()) {
    // The only acceptable failure on a well-formed formula is running
    // out of the decision budget.
    if (sol.status().code() != pso::StatusCode::kResourceExhausted) {
      std::abort();
    }
    return 0;
  }
  if (sol->satisfiable) {
    for (const std::vector<pso::Lit>& clause : cnf.clauses) {
      bool sat = false;
      for (pso::Lit l : clause) {
        if (sol->assignment[pso::LitVar(l)] == pso::LitPositive(l)) {
          sat = true;
          break;
        }
      }
      if (!sat) std::abort();
    }
  }
  return sol->satisfiable ? 1 : -1;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string text(reinterpret_cast<const char*>(data), size);
  pso::Result<pso::DimacsCnf> parsed = pso::ParseDimacsCnf(text);
  if (!parsed.ok()) return 0;

  // Accepted input: rendering and re-parsing must be the identity.
  pso::Result<pso::DimacsCnf> again =
      pso::ParseDimacsCnf(pso::ToDimacs(*parsed));
  if (!again.ok() || again->num_vars != parsed->num_vars ||
      again->clauses != parsed->clauses) {
    std::abort();
  }

  // Small formulas: differential solve, oracle vs production engine.
  if (parsed->num_vars <= 24 && parsed->clauses.size() <= 64) {
    int dpll = SolveOn(&pso::oracles::Dpll, *parsed);
    int cdcl = SolveOn(&pso::oracles::Cdcl, *parsed);
    if (dpll != 0 && cdcl != 0 && dpll != cdcl) std::abort();
  }
  return 0;
}
