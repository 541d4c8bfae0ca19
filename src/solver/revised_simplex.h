// Sparse revised simplex: the LP engine behind LpProblem::Solve.
//
// Besides the entry point, this header publishes the tuning constants
// tests need to craft instances that cross specific solver regimes (e.g.
// enough pivots to force a periodic refactorization, or a degenerate
// streak long enough to trip the primal Bland's-rule fallback).
//
// Algorithm sketch (details in revised_simplex.cc):
//   - Bounded-variable formulation: every constraint row i gets a logical
//     variable s_i with A x + s = b; relations become bounds on s
//     (<= : s in [0, inf), >= : s in (-inf, 0], == : s fixed at 0), and
//     variable bounds never become rows — the working dimension is the
//     constraint count, not constraints + bounds.
//   - The constraint matrix is stored column-sparse (CSC); the basis
//     inverse is a product-form eta file, refreshed by a from-scratch
//     refactorization with partial pivoting every kRefactorInterval
//     pivots.
//   - Cold start: the all-logical basis with a singleton crash. When
//     every nonbasic column can sit at the bound its reduced cost
//     prefers, the basis is dual feasible and a dual phase runs first:
//     the leaving row is the largest bound violation, and the long-step
//     (bound-flipping) ratio test flips boxed columns while the dual
//     slope stays positive and pivots on the first breakpoint it does
//     not pass. For the L1 fit of LP decoding this is the
//     Barrodale–Roberts algorithm: about 2.5 n pivots at m = 5n exact
//     answers, where the primal phases alone stall on the degenerate
//     exact-answer vertex.
//   - The primal phases always run afterwards, from whatever basis the
//     dual phase left (optimal, or a breakdown: no breakpoint, a pivot
//     below tolerance, a basis repair, or a dual-degenerate streak);
//     they alone decide infeasibility and unboundedness. Composite
//     phase 1 drives out bound infeasibilities of basic variables;
//     phase 2 optimizes. Dantzig pricing with a Bland fallback after
//     kBlandStreak degenerate steps; entering variables that hit their
//     own opposite bound flip without a basis change.

#ifndef PSO_SOLVER_REVISED_SIMPLEX_H_
#define PSO_SOLVER_REVISED_SIMPLEX_H_

#include <cstddef>

#include "common/result.h"
#include "solver/lp.h"

namespace pso {

/// Solves a well-formed `model` (LpProblem validates; prefer
/// LpProblem::Solve) to optimality. Returns kInfeasible when no point
/// satisfies the constraints, kUnbounded when the objective improves
/// without bound, and kInternal on iteration-limit exhaustion.
[[nodiscard]] Result<LpSolution> SolveRevisedSimplex(const LpInstance& model);

}  // namespace pso

namespace pso::revised_simplex_internal {

/// Pivots between from-scratch basis refactorizations. Between refreshes
/// each pivot appends one eta to the product-form file.
inline constexpr size_t kRefactorInterval = 64;

/// Degenerate (zero-step) pivots tolerated before primal pricing switches
/// from Dantzig to Bland's rule, and before the dual phase hands over to
/// the primal phases.
inline constexpr size_t kBlandStreak = 64;

}  // namespace pso::revised_simplex_internal

#endif  // PSO_SOLVER_REVISED_SIMPLEX_H_
