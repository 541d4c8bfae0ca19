// The dense two-phase tableau simplex: the differential oracle for the
// sparse revised simplex.
//
// Internally variables are shifted to x' >= 0, upper bounds become rows,
// and a two-phase tableau simplex (Dantzig pricing with a Bland's-rule
// fallback after degenerate streaks) runs to optimality.

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "oracles/oracles.h"
#include "solver/lp_internal.h"

namespace pso {

namespace {

constexpr double kEps = 1e-9;
constexpr size_t kMaxIterations = 200000;

// Dense simplex tableau. Row layout: m constraint rows then the objective
// row; column layout: structural+slack+artificial columns then RHS.
class Tableau {
 public:
  Tableau(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_((rows + 1) * (cols + 1), 0.0) {}

  double& At(size_t r, size_t c) { return data_[r * (cols_ + 1) + c]; }
  double At(size_t r, size_t c) const { return data_[r * (cols_ + 1) + c]; }
  double& Rhs(size_t r) { return At(r, cols_); }
  double Rhs(size_t r) const { return At(r, cols_); }
  double& Obj(size_t c) { return At(rows_, c); }
  double Obj(size_t c) const { return At(rows_, c); }
  double& ObjValue() { return At(rows_, cols_); }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  // Gauss pivot on (pr, pc); makes column pc a unit vector with 1 at pr.
  void Pivot(size_t pr, size_t pc) {
    double piv = At(pr, pc);
    PSO_CHECK(std::fabs(piv) > kEps);
    double inv = 1.0 / piv;
    for (size_t c = 0; c <= cols_; ++c) At(pr, c) *= inv;
    for (size_t r = 0; r <= rows_; ++r) {
      if (r == pr) continue;
      double factor = At(r, pc);
      if (std::fabs(factor) < kEps) {
        At(r, pc) = 0.0;
        continue;
      }
      for (size_t c = 0; c <= cols_; ++c) At(r, c) -= factor * At(pr, c);
      At(r, pc) = 0.0;
    }
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

// Runs simplex minimization on the tableau whose objective row already
// holds reduced costs w.r.t. the current basis. `allowed` masks columns
// eligible to enter. Returns false on iteration-limit exhaustion.
bool RunSimplex(Tableau& t, std::vector<size_t>& basis,
                const std::vector<bool>& allowed, size_t* iterations,
                size_t* pivot_work, lp_internal::PivotSink* sink = nullptr) {
  size_t degenerate_streak = 0;
  for (size_t iter = 0; iter < kMaxIterations; ++iter) {
    // Entering column: Dantzig (most negative reduced cost); switch to
    // Bland's rule (first negative) after a degenerate streak to guarantee
    // termination.
    bool bland = degenerate_streak > 64;
    size_t enter = t.cols();
    double best = -kEps;
    for (size_t c = 0; c < t.cols(); ++c) {
      if (!allowed[c]) continue;
      double rc = t.Obj(c);
      if (rc < -kEps) {
        if (bland) {
          enter = c;
          break;
        }
        if (rc < best) {
          best = rc;
          enter = c;
        }
      }
    }
    if (enter == t.cols()) {
      *iterations += iter;
      return true;  // optimal
    }

    // Leaving row: min ratio; ties broken by smallest basis index (Bland).
    // Pivot magnitudes below 1e-7 are rejected for numerical stability.
    size_t leave = t.rows();
    double best_ratio = 0.0;
    for (size_t r = 0; r < t.rows(); ++r) {
      double a = t.At(r, enter);
      if (a > 1e-7) {
        double ratio = std::max(0.0, t.Rhs(r)) / a;
        if (leave == t.rows() || ratio < best_ratio - kEps ||
            (std::fabs(ratio - best_ratio) <= kEps &&
             basis[r] < basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave == t.rows()) {
      *iterations += iter;
      return true;  // unbounded direction; caller inspects objective
    }

    degenerate_streak = (best_ratio <= kEps) ? degenerate_streak + 1 : 0;
    size_t leaving_var = basis[leave];
    t.Pivot(leave, enter);
    // A Gauss pivot touches every tableau cell: that is the dense
    // solver's FLOPs-equivalent unit of pivot work.
    *pivot_work += (t.rows() + 1) * (t.cols() + 1);
    basis[leave] = enter;
    // The tableau stores the negated running objective in the corner
    // cell; report the natural sign so traces read "objective fell".
    if (sink != nullptr && sink->Wants()) {
      sink->OnPivot(enter, leaving_var, -t.ObjValue());
    }
  }
  return false;
}

Result<LpSolution> SolveTableau(const LpInstance& model) {
  lp_internal::SolveScope scope;
  PSO_NAMED_SPAN(solve_span, "lp.solve");
  const bool tracing = solve_span.active();
  if (tracing) {
    solve_span.Arg("vars", std::to_string(model.variables.size()));
    solve_span.Arg("constraints", std::to_string(model.rows.size()));
  }
  const size_t n = model.variables.size();

  // Shifted problem: y_i = x_i - lb_i >= 0. Upper bounds become rows.
  struct NormRow {
    std::vector<std::pair<size_t, double>> coeffs;
    Relation rel;
    double rhs;
  };
  std::vector<NormRow> norm;
  norm.reserve(model.rows.size() + n);
  for (const LpInstance::Row& row : model.rows) {
    double shift = 0.0;
    for (const auto& [idx, coeff] : row.coeffs) {
      shift += coeff * model.variables[idx].lower;
    }
    norm.push_back(NormRow{row.coeffs, row.rel, row.rhs - shift});
  }
  for (size_t i = 0; i < n; ++i) {
    if (std::isfinite(model.variables[i].upper)) {
      norm.push_back(NormRow{{{i, 1.0}},
                             Relation::kLessEq,
                             model.variables[i].upper -
                                 model.variables[i].lower});
    }
  }

  // Flip rows to non-negative RHS.
  for (NormRow& row : norm) {
    if (row.rhs < 0.0) {
      for (auto& [idx, coeff] : row.coeffs) coeff = -coeff;
      row.rhs = -row.rhs;
      row.rel = (row.rel == Relation::kLessEq)    ? Relation::kGreaterEq
                : (row.rel == Relation::kGreaterEq) ? Relation::kLessEq
                                                    : Relation::kEqual;
    }
  }

  const size_t m = norm.size();

  // Crash basis: a structural variable appearing in exactly one row with
  // coefficient +1 (and zero entries elsewhere) can start basic in that
  // row, avoiding an artificial. L1-fit formulations (residual-splitting
  // u_j - v_j) crash completely this way and skip phase 1.
  std::vector<int> occurrences(n, 0);
  for (const NormRow& row : norm) {
    for (const auto& [idx, coeff] : row.coeffs) {
      (void)coeff;
      ++occurrences[idx];
    }
  }
  // Variables with finite upper bounds occupy their bound row too (already
  // counted, since bound rows are in `norm`).
  std::vector<size_t> crash(m, SIZE_MAX);
  for (size_t r = 0; r < m; ++r) {
    // Only equality rows need crashing: <= rows get a slack basic and
    // >= rows need their surplus handled by an artificial.
    if (norm[r].rel != Relation::kEqual) continue;
    for (const auto& [idx, coeff] : norm[r].coeffs) {
      if (occurrences[idx] == 1 && std::fabs(coeff - 1.0) < 1e-12) {
        crash[r] = idx;
        break;
      }
    }
  }

  // Columns: n structural, then one slack/surplus per inequality, then one
  // artificial per un-crashed >=/= row.
  size_t num_slack = 0;
  size_t num_art = 0;
  for (size_t r = 0; r < m; ++r) {
    if (norm[r].rel != Relation::kEqual) ++num_slack;
    if (norm[r].rel != Relation::kLessEq && crash[r] == SIZE_MAX) ++num_art;
  }
  const size_t cols = n + num_slack + num_art;
  const size_t art_begin = n + num_slack;

  Tableau t(m, cols);
  std::vector<size_t> basis(m);
  size_t slack_at = n;
  size_t art_at = art_begin;
  for (size_t r = 0; r < m; ++r) {
    for (const auto& [idx, coeff] : norm[r].coeffs) t.At(r, idx) += coeff;
    t.Rhs(r) = norm[r].rhs;
    switch (norm[r].rel) {
      case Relation::kLessEq:
        t.At(r, slack_at) = 1.0;
        basis[r] = slack_at++;
        break;
      case Relation::kGreaterEq:
        t.At(r, slack_at) = -1.0;
        ++slack_at;
        t.At(r, art_at) = 1.0;
        basis[r] = art_at++;
        break;
      case Relation::kEqual:
        if (crash[r] != SIZE_MAX) {
          basis[r] = crash[r];
        } else {
          t.At(r, art_at) = 1.0;
          basis[r] = art_at++;
        }
        break;
    }
  }
  num_art = art_at - art_begin;
  metrics::GetCounter("lp.tableau_rows").Add(m);
  metrics::GetCounter("lp.tableau_cols").Add(cols);

  size_t iterations = 0;

  // ---- Phase 1: minimize sum of artificials. ----
  // The span is opened even when the crash basis removed every
  // artificial, so a trace always shows the phase-1/phase-2 pair; a
  // zero-pivot phase 1 documents "feasible by construction".
  {
    trace::Span phase1_span("lp.phase1");
    if (phase1_span.active()) {
      phase1_span.Arg("artificials", std::to_string(num_art));
    }
    if (num_art > 0) {
      for (size_t c = art_begin; c < cols; ++c) t.Obj(c) = 1.0;
      // Reduce objective row w.r.t. the initial (artificial) basis.
      for (size_t r = 0; r < m; ++r) {
        if (basis[r] >= art_begin) {
          for (size_t c = 0; c <= cols; ++c) t.Obj(c) -= t.At(r, c);
        }
      }
      std::vector<bool> allowed(cols, true);
      lp_internal::PivotSink sink{tracing};
      bool phase1_done = RunSimplex(t, basis, allowed, &iterations,
                                    &scope.pivot_work, &sink);
      scope.phase1_iterations = iterations;
      scope.total_iterations = iterations;
      if (phase1_span.active()) {
        phase1_span.Arg("pivots", std::to_string(iterations));
      }
      if (!phase1_done) {
        PSO_LOG(WARN).Field("iterations", iterations)
            << "LP phase-1 iteration limit exceeded";
        return Status::Internal("phase-1 iteration limit exceeded");
      }
      if (-t.ObjValue() > 1e-6) {
        PSO_LOG(DEBUG).Field("residual", -t.ObjValue()) << "LP infeasible";
        return Status::Infeasible(
            StrFormat("phase-1 residual %.3g", -t.ObjValue()));
      }
      // Pivot remaining (degenerate) artificials out of the basis.
      for (size_t r = 0; r < m; ++r) {
        if (basis[r] >= art_begin) {
          size_t pivot_col = cols;
          for (size_t c = 0; c < art_begin; ++c) {
            if (std::fabs(t.At(r, c)) > kEps) {
              pivot_col = c;
              break;
            }
          }
          if (pivot_col < cols) {
            t.Pivot(r, pivot_col);
            basis[r] = pivot_col;
          }
          // Else the row is all-zero over real columns: redundant
          // constraint; the artificial stays basic at value 0, which is
          // harmless as long as it cannot re-enter (masked below).
        }
      }
    }
  }

  // ---- Phase 2: minimize the real objective. ----
  trace::Span phase2_span("lp.phase2");
  for (size_t c = 0; c <= cols; ++c) t.Obj(c) = 0.0;
  for (size_t i = 0; i < n; ++i) t.Obj(i) = model.variables[i].cost;
  for (size_t r = 0; r < m; ++r) {
    size_t b = basis[r];
    if (b < n && std::fabs(model.variables[b].cost) > 0.0) {
      double factor = model.variables[b].cost;
      for (size_t c = 0; c <= cols; ++c) t.Obj(c) -= factor * t.At(r, c);
    }
  }
  std::vector<bool> allowed(cols, true);
  for (size_t c = art_begin; c < cols; ++c) allowed[c] = false;
  lp_internal::PivotSink phase2_sink{tracing};
  bool phase2_done = RunSimplex(t, basis, allowed, &iterations,
                                &scope.pivot_work, &phase2_sink);
  scope.total_iterations = iterations;
  if (phase2_span.active()) {
    phase2_span.Arg("pivots",
                    std::to_string(iterations - scope.phase1_iterations));
  }
  if (!phase2_done) {
    PSO_LOG(WARN).Field("iterations", iterations)
        << "LP phase-2 iteration limit exceeded";
    return Status::Internal("phase-2 iteration limit exceeded");
  }
  // Unboundedness check: a negative reduced cost with no leaving row leaves
  // the objective row non-optimal; detect by rescanning. This is a property
  // of the model (a cost ray the constraints never cap), not a solver
  // failure, so it gets its own status code.
  for (size_t c = 0; c < cols; ++c) {
    if (allowed[c] && t.Obj(c) < -1e-6) {
      bool has_leaving = false;
      for (size_t r = 0; r < m; ++r) {
        if (t.At(r, c) > kEps) {
          has_leaving = true;
          break;
        }
      }
      if (!has_leaving) {
        return Status::Unbounded(StrFormat(
            "objective improves without bound along column %zu", c));
      }
    }
  }

  LpSolution sol;
  sol.values.assign(n, 0.0);
  for (size_t r = 0; r < m; ++r) {
    if (basis[r] < n) sol.values[basis[r]] = t.Rhs(r);
  }
  double obj = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sol.values[i] += model.variables[i].lower;
    obj += model.variables[i].cost * sol.values[i];
  }
  sol.objective = obj;
  sol.iterations = iterations;
  if (tracing) solve_span.Arg("pivots", std::to_string(iterations));
  return sol;
}

}  // namespace

namespace oracles {

Result<LpSolution> DenseSimplex(const LpProblem& lp) {
  if (!lp.build_status().ok()) return lp.build_status();
  return SolveTableau(lp.instance());
}

}  // namespace oracles
}  // namespace pso
