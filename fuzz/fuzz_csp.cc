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
// its CNF encoding (solver/csp_sat.h) must agree on satisfiability on
// CDCL and on its DPLL oracle, each model decoding to a solution.

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "common/bit_vector.h"
#include "fuzz_util.h"
#include "oracles/csp_reference.h"
#include "oracles/oracles.h"
#include "solver/csp.h"
#include "solver/csp_sat.h"
#include "solver/sat.h"

namespace {

// Domain sizes to draw from: tiny ones, and ones around word boundaries.
constexpr size_t kDomains[] = {0, 1, 2, 3, 4, 63, 64, 65, 129};

// Decides the CNF encoding of a clean instance on one engine: -1 UNSAT,
// 1 SAT (aborting unless the model is a solution), 0 undecided.
int CspViaSat(pso::oracles::SatSolveFn solve, const pso::CountCsp& csp) {
  const pso::CspCnf cnf = pso::EncodeCspCnf(csp);
  pso::SatSolveOptions options;
  options.max_decisions = 50000;
  pso::Result<pso::SatSolution> sol = solve(cnf.solver, options);
  if (!sol.ok()) {
    if (sol.status().code() != pso::StatusCode::kResourceExhausted) {
      std::abort();
    }
    return 0;
  }
  if (!sol->satisfiable) return -1;
  if (!csp.IsSolution(cnf.Decode(sol->assignment))) std::abort();
  return 1;
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
  size_t num_constraints = r.Below(5);
  // The CSP borrows its masks; reserved, so none moves while it lives.
  std::vector<pso::BitVector> masks;
  masks.reserve(num_constraints);
  pso::CountCsp csp(num_vars, domain);
  for (size_t c = 0; c < num_constraints; ++c) {
    // Mask length intentionally independent of the domain size so arity
    // mismatches get exercised.
    size_t mask_len = r.Bool() ? domain : r.Below(7);
    pso::BitVector& mask = masks.emplace_back(mask_len);
    for (size_t i = 0; i < mask_len; ++i) {
      if (r.Bool()) mask.Set(i);
    }
    int64_t lo = r.Range(-2, 6);
    int64_t hi = r.Range(-2, 6);
    csp.AddCountConstraint(&mask, lo, hi);
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
    if (!csp.IsSolution(sol)) std::abort();
  }

  // Cross-engine differential: when the enumeration above was
  // exhaustive, its satisfiability verdict is ground truth for the SAT
  // encoding, and the two SAT engines must also agree with each other.
  if (stats.complete) {
    const int truth = solutions.empty() ? -1 : 1;
    const int dpll = CspViaSat(&pso::oracles::Dpll, csp);
    const int cdcl = CspViaSat(&pso::oracles::Cdcl, csp);
    if (dpll != 0 && dpll != truth) std::abort();
    if (cdcl != 0 && cdcl != truth) std::abort();
  }
  return 0;
}
