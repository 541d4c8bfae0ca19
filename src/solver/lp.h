// LP model types, the validated problem builder, and the solve entry
// point.
//
// The paper's reproduction band calls for "CBC/Gurobi or SAT solvers"; none
// are available offline, so libpso ships its own. LpProblem is the validated
// builder for the bounded-variable linear programs produced by LP-decoding
// reconstruction (Theorem 1.1(ii), Dwork–McSherry–Talwar LP decoding);
// Solve() runs the sparse revised simplex (revised_simplex.h).
//
// Model: minimize c^T x subject to per-constraint relations and variable
// bounds (lower finite, upper finite or +inf).

#ifndef PSO_SOLVER_LP_H_
#define PSO_SOLVER_LP_H_

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace pso {

/// Relation of a linear constraint.
enum class Relation { kLessEq, kGreaterEq, kEqual };

/// Outcome of an LP solve.
struct LpSolution {
  std::vector<double> values;  ///< Optimal variable assignment.
  double objective = 0.0;      ///< Optimal objective value.
  size_t iterations = 0;       ///< Simplex pivots performed.
};

/// A plain-data LP instance: the unit the simplex consumes. Build one
/// through LpProblem, which validates every variable and row.
struct LpInstance {
  struct Variable {
    double lower = 0.0;  ///< Finite.
    double upper = 0.0;  ///< Finite or +infinity; >= lower.
    double cost = 0.0;   ///< Finite.
  };
  struct Row {
    std::vector<std::pair<size_t, double>> coeffs;
    Relation rel = Relation::kLessEq;
    double rhs = 0.0;
  };
  std::vector<Variable> variables;
  std::vector<Row> rows;
};

/// A linear program under construction.
///
/// Malformed input (non-finite or empty bounds, values outside the
/// magnitude range, unknown variable indices) does not abort: the first
/// violation is recorded and surfaced as an InvalidArgument status by
/// Solve(), so untrusted instances (fuzzers, decoded files) can probe the
/// builder freely and still hard-fail with a recoverable Status.
class LpProblem {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();
  /// Every nonzero coefficient, cost and finite variable bound must have
  /// a magnitude in [kMinMagnitude, kMaxMagnitude]. Both engines shift a
  /// variable by its bound, so a solve's rounding error grows with the
  /// bound: with a lower bound of -1e15 they miss an optimum of about -7
  /// by up to 0.13, and at -1e9 they agree to 1e-7. Both refuse pivots
  /// below 1e-7, so a smaller coefficient cannot bound its variable
  /// (3e-8·x <= 1 reads as a ray); the lower limit keeps every
  /// coefficient a decade above that. Products of extreme
  /// values go further: a coefficient of 4e245 on a variable capped at
  /// 6e-308 let the sparse engine accept a row it misses by 2.5. The
  /// right-hand side has no lower limit (noisy answers are legitimately
  /// small); the decoding LPs use 0/1 coefficients and costs and 0/1/inf
  /// bounds.
  static constexpr double kMinMagnitude = 1e-6;
  static constexpr double kMaxMagnitude = 1e9;

  /// True when `v` is 0 or its magnitude lies in [kMinMagnitude,
  /// kMaxMagnitude]; false for infinities and NaN.
  static bool InMagnitudeRange(double v) {
    const double a = std::fabs(v);
    return v == 0.0 || (a >= kMinMagnitude && a <= kMaxMagnitude);
  }

  /// True when every entry of `coeffs` is InMagnitudeRange and so is the
  /// sum of each variable's repeated entries, which both engines add up
  /// in order (1.00000003·x − 1·x is a 3e-8 coefficient).
  static bool CoefficientsInMagnitudeRange(
      const std::vector<std::pair<size_t, double>>& coeffs);

  LpProblem() = default;

  /// Adds a variable with bounds [lb, ub] (ub may be kInfinity) and
  /// objective coefficient `cost`. Returns its index. Requires lb finite,
  /// lb <= ub, and lb, a finite ub and cost InMagnitudeRange; violations
  /// poison build_status().
  size_t AddVariable(double lb, double ub, double cost);

  /// Adds a constraint sum_i coeffs[i].second * x_{coeffs[i].first}
  /// `rel` rhs. Variable indices must already exist, the coefficients
  /// CoefficientsInMagnitudeRange and rhs finite; violations poison
  /// build_status().
  void AddConstraint(const std::vector<std::pair<size_t, double>>& coeffs,
                     Relation rel, double rhs);

  /// The validated plain-data instance (what the simplex consumes). Only
  /// meaningful while build_status() is OK.
  const LpInstance& instance() const { return instance_; }

  /// OK unless a builder call above was handed a malformed variable or
  /// constraint; then the first violation, as InvalidArgument.
  const Status& build_status() const { return build_status_; }

  /// Solves to optimality with the sparse revised simplex. Returns the
  /// recorded build_status() error if the instance is malformed,
  /// kInfeasible if no feasible point exists, kUnbounded if the objective
  /// improves without bound (our decoding LPs are always bounded, so
  /// callers may treat it as a modeling error), and kInternal on
  /// iteration-limit exhaustion.
  [[nodiscard]] Result<LpSolution> Solve() const;

 private:
  LpInstance instance_;
  Status build_status_;
};

}  // namespace pso

#endif  // PSO_SOLVER_LP_H_
