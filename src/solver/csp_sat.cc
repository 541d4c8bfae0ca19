#include "solver/csp_sat.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace pso {

std::vector<size_t> CspCnf::Decode(const std::vector<bool>& model) const {
  const size_t m = candidates.size();
  std::vector<size_t> values;
  values.reserve(num_vars);
  for (size_t p = 0; p < num_vars; ++p) {
    for (size_t c = 0; c < m; ++c) {
      if (model[p * m + c]) {
        values.push_back(candidates[c]);
        break;
      }
    }
  }
  return values;
}

CspCnf EncodeCspCnf(const CountCsp& csp) {
  PSO_CHECK(csp.build_status().ok());
  CspCnf cnf;
  cnf.num_vars = csp.num_vars();
  cnf.candidates = csp.Candidates();
  const size_t n = cnf.num_vars;
  const size_t m = cnf.candidates.size();

  cnf.solver = SatSolver(static_cast<uint32_t>(n * m));
  SatSolver& solver = cnf.solver;
  const auto y = [m](size_t p, size_t c) {
    return MakeLit(static_cast<uint32_t>(p * m + c), true);
  };
  for (size_t p = 0; p < n; ++p) {
    std::vector<Lit> row;
    row.reserve(m);
    for (size_t c = 0; c < m; ++c) row.push_back(y(p, c));
    solver.AddExactlyOne(row);
  }

  const int64_t num_vars = static_cast<int64_t>(n);
  for (const CountCsp::Constraint& k : csp.constraints()) {
    if (k.hi == 0) continue;
    std::vector<size_t> hits;
    for (size_t c = 0; c < m; ++c) {
      if (k.match().Test(cnf.candidates[c])) hits.push_back(c);
    }
    if (k.lo > num_vars || (hits.empty() && k.lo > 0)) {
      solver.AddClause({});
      continue;
    }
    // { y(p, c) : candidates[c] matches k }, variable-major.
    std::vector<Lit> lits;
    lits.reserve(n * hits.size());
    for (size_t p = 0; p < n; ++p) {
      for (size_t c : hits) lits.push_back(y(p, c));
    }
    const int64_t width = static_cast<int64_t>(lits.size());
    solver.AddAtMostK(lits, static_cast<size_t>(std::min(k.hi, width)));
    solver.AddAtLeastK(lits, static_cast<size_t>(k.lo));
  }
  return cnf;
}

}  // namespace pso
