// DIMACS CNF import/export for the SAT solver, test support.
//
// DIMACS CNF is the lingua franca of the SAT world. Here it is the input
// format of fuzz_dimacs and of the codec tests, which feed parsed
// formulas to the production CDCL engine; no production path reads it.
// The parser treats its input as untrusted: every malformed header,
// out-of-range literal, or truncated clause is an InvalidArgument status,
// never an abort.
//
// Accepted dialect:
//   c <comment>                 -- anywhere before/between clauses
//   p cnf <num_vars> <num_clauses>
//   <lit> ... <lit> 0           -- clauses; literals may span lines
// Literal v > 0 is variable v-1 positive, -v is variable v-1 negated.
// The declared clause count must match the clauses present; the declared
// variable count bounds every literal.

#ifndef PSO_TESTS_ORACLES_DIMACS_H_
#define PSO_TESTS_ORACLES_DIMACS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "solver/sat.h"

namespace pso {

/// A parsed DIMACS CNF formula.
struct DimacsCnf {
  uint32_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

/// Hard caps enforced by ParseDimacsCnf so adversarial headers cannot
/// reserve unbounded memory: a declared variable or clause count above
/// these limits is rejected as InvalidArgument.
inline constexpr uint32_t kDimacsMaxVars = 1u << 20;
inline constexpr size_t kDimacsMaxClauses = 1u << 22;

/// Parses DIMACS CNF `text` (see file comment for the dialect).
[[nodiscard]] Result<DimacsCnf> ParseDimacsCnf(const std::string& text);

/// Renders `cnf` back to DIMACS text (inverse of ParseDimacsCnf up to
/// comments and whitespace).
std::string ToDimacs(const DimacsCnf& cnf);

/// Loads `cnf` into a fresh solver (clauses added in order).
SatSolver BuildSatSolver(const DimacsCnf& cnf);

}  // namespace pso

#endif  // PSO_TESTS_ORACLES_DIMACS_H_
