// Test-only reference search for the count-constraint CSP.
//
// CspEnumerateReference is CountCsp::Enumerate's straightforward form,
// kept so differential tests can compare the two: every node rescans
// every constraint's count window, where Enumerate tests a child against
// only the constraints its value matches. Both visit the same nodes in
// the same order, so solutions and CspStats must be identical. It
// publishes no csp.* counters or spans.

#ifndef PSO_TESTS_ORACLES_CSP_REFERENCE_H_
#define PSO_TESTS_ORACLES_CSP_REFERENCE_H_

#include <vector>

#include "solver/csp.h"

namespace pso::oracles {

/// Enumerates `csp`'s solutions with the scan-every-constraint search,
/// under Enumerate's caps and with its return value and stats.
std::vector<std::vector<size_t>> CspEnumerateReference(const CountCsp& csp,
                                                       size_t max_solutions,
                                                       size_t max_nodes,
                                                       CspStats* stats);

}  // namespace pso::oracles

#endif  // PSO_TESTS_ORACLES_CSP_REFERENCE_H_
