// CNF encoding of a count-constraint CSP (solver/csp.h): the CDCL engine
// decides the very instance Enumerate searches. Census reconstruction,
// the CSP property test and fuzz_csp all build their formulas here.
//
// One boolean y(p, c) per variable p and candidate value c
// (CountCsp::Candidates), exactly one true per variable. Each constraint,
// in order, becomes a Sinz sequential-counter at-most-hi and at-least-lo
// over the y(p, c) whose value it matches; a window no assignment can
// meet (lo above the variable count, or lo > 0 with no matching
// candidate) is the empty clause, as it fails Enumerate's root, and a
// hi == 0 window adds nothing, since its values are not candidates.
// Unlike Enumerate, the encoding keeps the symmetry between variables.

#ifndef PSO_SOLVER_CSP_SAT_H_
#define PSO_SOLVER_CSP_SAT_H_

#include <vector>

#include "solver/csp.h"
#include "solver/sat.h"

namespace pso {

/// A CountCsp as CNF, with what is needed to read a model back: SAT
/// variable p * candidates.size() + c says variable p takes value
/// candidates[c].
struct CspCnf {
  SatSolver solver{0};
  std::vector<size_t> candidates;  ///< CountCsp::Candidates().
  size_t num_vars = 0;             ///< The CSP's variables.

  /// One value per CSP variable, in variable order, from a model of
  /// `solver`.
  std::vector<size_t> Decode(const std::vector<bool>& model) const;
};

/// Encodes `csp`, whose build_status() must be OK, as CNF (see the file
/// comment).
CspCnf EncodeCspCnf(const CountCsp& csp);

}  // namespace pso

#endif  // PSO_SOLVER_CSP_SAT_H_
