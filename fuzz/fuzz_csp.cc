// Fuzz target: count-constraint CSP builder and enumerator
// (solver/csp.h).
//
// Bytes drive instance construction, including deliberately malformed
// pieces (zero domains, wrong mask arity, inverted count windows). Some
// domains end just before, at or just after a 64-bit word of the packed
// masks, or span three words. A poisoned instance must report
// build_status() != OK and enumerate nothing with complete == false; a
// clean instance must only emit non-decreasing, constraint-satisfying
// solutions, identical to the scan-every-constraint reference search's
// (solutions and CspStats, also under tiny node and solution caps), and
// a SAT cross-encoding of it must agree on satisfiability on CDCL and on
// its DPLL oracle.

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "common/bit_vector.h"
#include "fuzz_util.h"
#include "oracles/csp_reference.h"
#include "oracles/oracles.h"
#include "solver/csp.h"
#include "solver/sat.h"

namespace {

// Domain sizes to draw from: tiny ones, and ones around word boundaries.
constexpr size_t kDomains[] = {0, 1, 2, 3, 4, 63, 64, 65, 129};

struct FuzzCount {
  pso::BitVector mask;
  int64_t lo = 0;
  int64_t hi = 0;
};

// SAT cross-encoding of a clean instance (mask arity == domain): one
// boolean per (variable, value), exactly-one rows, an auxiliary "matches
// constraint" literal per variable, cardinality bounds over the
// auxiliaries. Returns -1 UNSAT, 1 SAT, 0 undecided.
int CspViaSat(pso::oracles::SatSolveFn solve, size_t num_vars,
              size_t domain, const std::vector<FuzzCount>& counts) {
  pso::SatSolver solver(static_cast<uint32_t>(num_vars * domain));
  auto x = [&](size_t var, size_t val) {
    return pso::MakeLit(static_cast<uint32_t>(var * domain + val), true);
  };
  for (size_t i = 0; i < num_vars; ++i) {
    std::vector<pso::Lit> row;
    for (size_t v = 0; v < domain; ++v) row.push_back(x(i, v));
    solver.AddExactlyOne(row);
  }
  for (const FuzzCount& count : counts) {
    if (count.hi < 0 ||
        count.lo > static_cast<int64_t>(num_vars)) {
      solver.AddClause({});  // no count can land in this window
      continue;
    }
    std::vector<pso::Lit> ys;
    for (size_t i = 0; i < num_vars; ++i) {
      pso::Lit y = pso::MakeLit(solver.NewVariable(), true);
      std::vector<pso::Lit> forward{pso::LitNegate(y)};
      for (size_t v = 0; v < domain; ++v) {
        if (!count.mask.Test(v)) continue;
        forward.push_back(x(i, v));
        solver.AddBinary(pso::LitNegate(x(i, v)), y);
      }
      solver.AddClause(forward);
      ys.push_back(y);
    }
    if (count.hi < static_cast<int64_t>(num_vars)) {
      solver.AddAtMostK(ys, static_cast<size_t>(count.hi));
    }
    if (count.lo > 0) {
      solver.AddAtLeastK(ys, static_cast<size_t>(count.lo));
    }
  }
  pso::SatSolveOptions options;
  options.max_decisions = 50000;
  pso::Result<pso::SatSolution> sol = solve(solver, options);
  if (!sol.ok()) {
    if (sol.status().code() != pso::StatusCode::kResourceExhausted) {
      std::abort();
    }
    return 0;
  }
  return sol->satisfiable ? 1 : -1;
}

// Aborts unless Enumerate and the scan-every-constraint reference search
// return the same solutions and CspStats under these caps.
void CheckAgainstReference(const pso::CountCsp& csp, size_t max_solutions,
                           size_t max_nodes) {
  pso::CspStats got_stats;
  pso::CspStats want_stats;
  const std::vector<std::vector<size_t>> got =
      csp.Enumerate(max_solutions, max_nodes, &got_stats);
  const std::vector<std::vector<size_t>> want =
      pso::oracles::CspEnumerateReference(csp, max_solutions, max_nodes,
                                          &want_stats);
  if (got != want || got_stats.nodes != want_stats.nodes ||
      got_stats.solutions != want_stats.solutions ||
      got_stats.complete != want_stats.complete) {
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  pso::fuzz::ByteReader r(data, size);

  size_t num_vars = r.Below(6);
  // 0 is a legal-to-request, poisoned domain.
  size_t domain = kDomains[r.Below(std::size(kDomains))];
  pso::CountCsp csp(num_vars, domain);

  std::vector<FuzzCount> recorded;
  size_t num_constraints = r.Below(5);
  for (size_t c = 0; c < num_constraints; ++c) {
    // Mask length intentionally independent of the domain size so arity
    // mismatches get exercised.
    size_t mask_len = r.Bool() ? domain : r.Below(7);
    pso::BitVector mask(mask_len);
    for (size_t i = 0; i < mask_len; ++i) {
      if (r.Bool()) mask.Set(i);
    }
    int64_t lo = r.Range(-2, 6);
    int64_t hi = r.Range(-2, 6);
    recorded.push_back(FuzzCount{mask, lo, hi});
    csp.AddCountConstraint(std::move(mask), lo, hi);
  }

  pso::CspStats stats;
  std::vector<std::vector<size_t>> solutions =
      csp.Enumerate(/*max_solutions=*/64, /*max_nodes=*/20000, &stats);
  // The incremental search must visit exactly the reference's nodes,
  // also when a tiny byte-chosen cap stops both partway.
  CheckAgainstReference(csp, 64, 20000);
  CheckAgainstReference(csp, r.Below(3), r.Below(40));

  if (!csp.build_status().ok()) {
    // Poisoned instances must refuse to report solutions as exhaustive.
    if (!solutions.empty() || stats.complete) std::abort();
    return 0;
  }

  for (const std::vector<size_t>& sol : solutions) {
    if (sol.size() != num_vars) std::abort();
    for (size_t i = 0; i < sol.size(); ++i) {
      if (sol[i] >= domain) std::abort();
      if (i > 0 && sol[i] < sol[i - 1]) std::abort();  // symmetry broken
    }
  }

  // Cross-engine differential: when the enumeration above was
  // exhaustive, its satisfiability verdict is ground truth for the SAT
  // encoding, and the two SAT engines must also agree with each other.
  if (stats.complete) {
    const int truth = solutions.empty() ? -1 : 1;
    const int dpll = CspViaSat(&pso::oracles::Dpll, num_vars, domain,
                               recorded);
    const int cdcl = CspViaSat(&pso::oracles::Cdcl, num_vars, domain,
                               recorded);
    if (dpll != 0 && dpll != truth) std::abort();
    if (cdcl != 0 && cdcl != truth) std::abort();
  }
  return 0;
}
