#include "census/sat_reconstruct.h"

#include <string>

#include "census/reconstruct.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "solver/csp_sat.h"

namespace pso::census {

Result<SatReconstruction> ReconstructBlockSat(const BlockTables& tables,
                                              size_t max_decisions) {
  trace::Span block_span("census.sat_block");
  if (block_span.active()) {
    block_span.Arg("persons", std::to_string(tables.total));
  }
  const CspCnf cnf = EncodeCspCnf(EncodeBlockCsp(tables));
  const SatSolver& solver = cnf.solver;
  SatReconstruction out;
  out.variables = solver.num_vars();
  Result<SatSolution> solved = solver.Solve(max_decisions);
  if (!solved.ok()) {
    if (solved.status().code() == StatusCode::kResourceExhausted) {
      // Budget ran out: a first-class outcome, not an error. The solver
      // is healthy; the block just needs more decisions than allowed.
      metrics::GetCounter("census.sat_budget_exhausted").Add(1);
      out.budget_exhausted = true;
      out.decisions = max_decisions;
      return out;
    }
    return solved.status();
  }

  out.satisfiable = solved->satisfiable;
  out.decisions = solved->decisions;
  out.conflicts = solved->conflicts;
  if (solved->satisfiable) {
    for (size_t v : cnf.Decode(solved->assignment)) {
      out.reconstructed.push_back(DecodePerson(v));
    }
  }
  return out;
}

}  // namespace pso::census
