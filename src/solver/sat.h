// CNF builder and SAT front-end. A self-contained substrate standing in
// for the external SAT solvers the census-reconstruction literature links
// against.
//
// SatSolver owns the *formula* — clauses, cardinality encodings,
// auxiliary variables — and hands the *search* to the conflict-driven
// clause-learning engine (cdcl.h).
//
// Literal encoding: variable v in [0, num_vars), literal = 2*v for the
// positive phase, 2*v+1 for the negated phase.

#ifndef PSO_SOLVER_SAT_H_
#define PSO_SOLVER_SAT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace pso {

/// A literal (see file comment for the encoding).
using Lit = uint32_t;

/// Makes a literal for variable `var` with the given sign.
inline Lit MakeLit(uint32_t var, bool positive) {
  return (var << 1) | (positive ? 0u : 1u);
}
inline uint32_t LitVar(Lit l) { return l >> 1; }
inline bool LitPositive(Lit l) { return (l & 1u) == 0; }
inline Lit LitNegate(Lit l) { return l ^ 1u; }

/// Result of a SAT solve.
struct SatSolution {
  bool satisfiable = false;
  std::vector<bool> assignment;  ///< Per-variable value when satisfiable.
  size_t decisions = 0;          ///< Branching decisions explored.
  size_t propagations = 0;       ///< Unit propagations performed.
  size_t backtracks = 0;         ///< Backtracks / backjumps taken.
  size_t conflicts = 0;          ///< Conflicts hit during the search.
  size_t learned_clauses = 0;    ///< Clauses learned.
  size_t restarts = 0;           ///< Restarts performed.
};

/// A plain-data CNF instance: the unit the search consumes. Build one
/// through SatSolver (whose builder validates, deduplicates literals and
/// drops tautological clauses) — the search may assume each clause is
/// sorted, duplicate-free, tautology-free, non-empty, and references only
/// variables below num_vars. An instance whose construction saw an empty
/// clause carries trivially_unsat instead of storing the clause.
struct SatInstance {
  uint32_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
  bool trivially_unsat = false;
};

/// Per-solve options.
struct SatSolveOptions {
  /// Bounds the search (0 = unlimited); exceeding it returns
  /// kResourceExhausted — the budget ran out, the solver is healthy.
  size_t max_decisions = 0;
};

/// CNF formula builder and solve front-end.
///
/// Malformed input (clause literals over undeclared variables,
/// over-demanding cardinality constraints) does not abort: the first
/// violation is recorded and surfaced as an InvalidArgument status by
/// Solve(), so untrusted instances (fuzzers, DIMACS files) can probe the
/// builder freely and still hard-fail with a recoverable Status.
class SatSolver {
 public:
  /// Creates a builder over `num_vars` variables.
  explicit SatSolver(uint32_t num_vars);

  uint32_t num_vars() const { return instance_.num_vars; }

  /// OK unless a builder call above was handed a malformed clause or
  /// cardinality constraint; then the first violation, as InvalidArgument.
  const Status& build_status() const { return build_status_; }

  /// The formula built so far, in the plain-data form the search
  /// consumes. Clauses are sorted, duplicate-free and tautology-free.
  const SatInstance& instance() const { return instance_; }

  /// Adds a fresh variable (for encodings needing auxiliaries, e.g. the
  /// sequential-counter cardinality constraints) and returns its index.
  uint32_t NewVariable();

  /// Adds a clause (disjunction of literals). An empty clause makes the
  /// formula trivially unsatisfiable. Duplicate literals are allowed;
  /// tautological clauses (l and ~l) are dropped.
  void AddClause(std::vector<Lit> clause);

  /// Convenience for small clauses.
  void AddUnit(Lit a) { AddClause({a}); }
  void AddBinary(Lit a, Lit b) { AddClause({a, b}); }
  void AddTernary(Lit a, Lit b, Lit c) { AddClause({a, b, c}); }

  /// Adds clauses enforcing "at most one of `lits` is true" (pairwise).
  void AddAtMostOne(const std::vector<Lit>& lits);

  /// Adds clauses enforcing "exactly one of `lits` is true".
  void AddExactlyOne(const std::vector<Lit>& lits);

  /// Adds Sinz's sequential-counter encoding of "at most k of `lits` are
  /// true" (creates O(|lits| * k) auxiliary variables/clauses). k = 0
  /// forces all literals false.
  void AddAtMostK(const std::vector<Lit>& lits, size_t k);

  /// "At least k of `lits` are true" (AtMostK over the negations).
  void AddAtLeastK(const std::vector<Lit>& lits, size_t k);

  /// Decides the formula with the CDCL engine. `max_decisions` bounds the
  /// search (0 = unlimited); exceeding it returns kResourceExhausted.
  /// Returns the recorded build_status() error if the formula is
  /// malformed.
  [[nodiscard]] Result<SatSolution> Solve(size_t max_decisions = 0) const;

 private:
  SatInstance instance_;
  Status build_status_;
};

}  // namespace pso

#endif  // PSO_SOLVER_SAT_H_
