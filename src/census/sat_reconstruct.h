// SAT-based block reconstruction: the alternative back-end the published
// reconstruction literature used (the Census Bureau's experiments ran on
// commercial MIP solvers; academic reproductions commonly use SAT with
// cardinality encodings). Cross-validates the CSP engine: both must agree
// on satisfiability, and on uniquely-determined blocks both must return
// the ground truth.
//
// Encoding: one boolean y_{p,v} per (person p, candidate value v) with
// exactly-one per person; every table cell "count of persons matching S
// is in [lo, hi]" becomes at-least/at-most cardinality constraints (Sinz
// sequential counters) over { y_{p,v} : v in S }.

#ifndef PSO_CENSUS_SAT_RECONSTRUCT_H_
#define PSO_CENSUS_SAT_RECONSTRUCT_H_

#include <vector>

#include "census/tabulator.h"
#include "common/result.h"
#include "solver/sat.h"

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

/// The CNF encoding of one block, with what is needed to read a model
/// back as records: variable p * candidates.size() + c says person p
/// takes the person value candidates[c].
struct BlockCnf {
  SatSolver solver{0};
  std::vector<size_t> candidates;  ///< Person values the tables allow.
  size_t persons = 0;

  /// One record per person from a satisfying assignment.
  std::vector<Record> Decode(const std::vector<bool>& assignment) const;
};

/// Encodes `tables` as CNF. An empty block has no variables; a block
/// whose zero cells rule out every person value has no candidates (it is
/// unsatisfiable without a search).
BlockCnf EncodeBlockSat(const BlockTables& tables);

/// Encodes `tables` as CNF and decides it with the CDCL engine.
/// `max_decisions` bounds the search (0 = unlimited); when it runs out
/// the call still succeeds, with `budget_exhausted` set on the result.
[[nodiscard]] Result<SatReconstruction> ReconstructBlockSat(
    const BlockTables& tables, size_t max_decisions = 0);

}  // namespace pso::census

#endif  // PSO_CENSUS_SAT_RECONSTRUCT_H_
