// Brute-force oracle for the count-constraint CSP (solver/csp.h), shared
// by csp_test and proptest_solver_test; csp_reference_test builds its
// random instances as CspCase too.
//
// It enumerates every non-decreasing value sequence — the CSP's own
// solution space — and counts the ones that satisfy every constraint,
// independent of the solver's candidate filter and pruning.

#ifndef PSO_TESTS_CSP_BRUTE_FORCE_H_
#define PSO_TESTS_CSP_BRUTE_FORCE_H_

#include <cstdint>
#include <vector>

#include "common/bit_vector.h"

namespace pso {

/// A count-CSP instance in plain data, as handed to CountCsp.
struct CspCase {
  size_t num_vars = 0;
  size_t domain = 0;
  struct Count {
    BitVector match;
    int64_t lo = 0;
    int64_t hi = 0;
  };
  std::vector<Count> counts;
};

/// True when every count of `c` over `seq` (one value per variable) lies
/// in its window.
inline bool SatisfiesEveryCount(const CspCase& c,
                                const std::vector<size_t>& seq) {
  for (const CspCase::Count& count : c.counts) {
    int64_t matched = 0;
    for (size_t v : seq) matched += count.match.Test(v) ? 1 : 0;
    if (matched < count.lo || matched > count.hi) return false;
  }
  return true;
}

/// Number of solutions of `c` (multisets of num_vars values).
inline size_t BruteForceCspSolutions(const CspCase& c) {
  size_t found = 0;
  std::vector<size_t> seq(c.num_vars, 0);
  auto visit = [&](auto&& self, size_t depth, size_t min_val) -> void {
    if (depth == c.num_vars) {
      if (SatisfiesEveryCount(c, seq)) ++found;
      return;
    }
    for (size_t v = min_val; v < c.domain; ++v) {
      seq[depth] = v;
      self(self, depth + 1, v);
    }
  };
  visit(visit, 0, 0);
  return found;
}

}  // namespace pso

#endif  // PSO_TESTS_CSP_BRUTE_FORCE_H_
