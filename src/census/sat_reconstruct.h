// SAT-based block reconstruction: the alternative back-end the published
// reconstruction literature used (the Census Bureau's experiments ran on
// commercial MIP solvers; academic reproductions commonly use SAT with
// cardinality encodings). Cross-validates the CSP engine: both must agree
// on satisfiability, and on uniquely-determined blocks both must return
// the ground truth.
//
// There is one block model. The tables become the CountCsp that
// EncodeBlockCsp (census/reconstruct.h) builds for the CSP engine, and
// EncodeCspCnf (solver/csp_sat.h) turns that into CNF: one boolean per
// (person, candidate value), exactly one per person, and each window a
// pair of Sinz sequential-counter cardinality bounds.

#ifndef PSO_CENSUS_SAT_RECONSTRUCT_H_
#define PSO_CENSUS_SAT_RECONSTRUCT_H_

#include <vector>

#include "census/tabulator.h"
#include "common/result.h"

namespace pso::census {

/// Outcome of the SAT reconstruction of one block.
struct SatReconstruction {
  bool satisfiable = false;
  /// The decision budget ran out before the solver reached an answer:
  /// a first-class outcome (the block is neither SAT nor UNSAT as far as
  /// this run can tell), not a solver failure. `satisfiable` is
  /// meaningless when set and `reconstructed` is empty.
  bool budget_exhausted = false;
  std::vector<Record> reconstructed;  ///< One consistent solution.
  size_t decisions = 0;               ///< Solver decisions used.
  size_t conflicts = 0;               ///< Conflicts hit during the search.
  size_t variables = 0;               ///< Total SAT variables (incl. aux).
};

/// Encodes `tables` as CNF and decides it with the CDCL engine.
/// `max_decisions` bounds the search (0 = unlimited); when it runs out
/// the call still succeeds, with `budget_exhausted` set on the result.
[[nodiscard]] Result<SatReconstruction> ReconstructBlockSat(
    const BlockTables& tables, size_t max_decisions = 0);

}  // namespace pso::census

#endif  // PSO_CENSUS_SAT_RECONSTRUCT_H_
