// The LP engine: a bounded-variable revised simplex over column-sparse
// constraint storage with a product-form (eta-file) basis inverse, run as
// a dual phase with a bound-flipping ratio test followed by the primal
// phases.
//
// Where a tableau simplex updates every cell of an (m+1) x (cols+1) array
// per pivot, this engine touches only the nonzeros that matter: FTRAN /
// BTRAN walk the eta file, pricing walks CSC columns, and upper bounds
// live as bounds (not rows), so reconstruction L1-fit LPs run in the
// query dimension instead of queries + bound rows. See revised_simplex.h
// for the algorithm sketch and the tuning constants shared with tests.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/progress.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "solver/lp_internal.h"
#include "solver/revised_simplex.h"
#include "solver/sparse_matrix.h"

namespace pso {

namespace {

using revised_simplex_internal::kBlandStreak;
using revised_simplex_internal::kRefactorInterval;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;        // Reduced-cost / ratio tie tolerance.
constexpr double kPivotTol = 1e-7;   // Minimum acceptable pivot magnitude.
constexpr double kFeasTol = 1e-7;    // Per-variable bound violation slack.
constexpr double kInfeasTol = 1e-6;  // Total violation => kInfeasible.
constexpr size_t kMaxIterations = 200000;

// Heartbeat cadence in simplex steps (pricing rounds). A work-count
// boundary, never a timer, so heartbeats replay deterministically.
constexpr uint64_t kHeartbeatEvery = 256;

// Basis membership of one column.
enum class VarStatus : uint8_t {
  kAtLower,  // Nonbasic at its lower bound.
  kAtUpper,  // Nonbasic at its upper bound.
  kBasic,    // In the basis.
};

// Dual pricing outcome: the leaving row (SIZE_MAX = the basis is primal
// feasible), its bound violation, and the bound it leaves at.
struct DualLeave {
  size_t row = SIZE_MAX;
  double violation = 0.0;
  double target = 0.0;
  bool to_upper = false;
};

// One dual ratio-test candidate: column `col` leaves dual feasibility
// once the dual step passes `t`.
struct Breakpoint {
  double t = 0.0;
  size_t col = 0;
};

// Dual ratio-test outcome: the entering column (SIZE_MAX = none) and how
// many columns before it flip their bound.
struct DualRatio {
  size_t enter = SIZE_MAX;
  size_t flips = 0;
};

// One product-form eta: the FTRAN image w = B^-1 A_q of an entering
// column, split into the pivot element and the off-pivot nonzeros.
// Applying the eta forward divides the pivot position by pivot_value and
// eliminates the off-pivot rows; applying it transposed is one sparse dot
// product. Both skip entirely when the pivot position is zero.
struct Eta {
  size_t pivot_row = 0;
  double pivot_value = 1.0;
  std::vector<std::pair<size_t, double>> others;
};

// Pricing outcome: the entering column (SIZE_MAX = none eligible) plus
// the phase-1 infeasibility summary gathered while building c_B.
struct Pricing {
  size_t enter = SIZE_MAX;
  double reduced = 0.0;
  bool any_infeasible = false;
  double total_violation = 0.0;
};

// Ratio-test outcome: the step length, the blocking row (has_leave) or a
// bound flip (!has_leave, finite t) or an unbounded ray.
struct Ratio {
  bool unbounded = false;
  bool has_leave = false;
  size_t leave_row = 0;
  bool leave_at_upper = false;
  double t = 0.0;
};

// All per-solve state. Column indexing: [0, n) structural, [n, n+m)
// logical (one per row, identity coefficient).
class SimplexState {
 public:
  SimplexState(const LpInstance& model, lp_internal::SolveScope* scope)
      : scope_(scope) {
    n_ = model.variables.size();
    m_ = model.rows.size();
    ncols_ = n_ + m_;

    lower_.resize(ncols_);
    upper_.resize(ncols_);
    cost_.assign(ncols_, 0.0);
    rhs_.resize(m_);

    std::vector<SparseTriplet> triplets;
    size_t nnz_guess = m_;
    for (const LpInstance::Row& row : model.rows) nnz_guess += row.coeffs.size();
    triplets.reserve(nnz_guess);
    for (size_t j = 0; j < n_; ++j) {
      lower_[j] = model.variables[j].lower;
      upper_[j] = model.variables[j].upper;
      cost_[j] = model.variables[j].cost;
    }
    for (size_t i = 0; i < m_; ++i) {
      const LpInstance::Row& row = model.rows[i];
      for (const auto& [idx, coeff] : row.coeffs) {
        triplets.push_back(SparseTriplet{i, idx, coeff});
      }
      triplets.push_back(SparseTriplet{i, n_ + i, 1.0});
      rhs_[i] = row.rhs;
      // Relation -> logical bounds: A x + s = b.
      switch (row.rel) {
        case Relation::kLessEq:
          lower_[n_ + i] = 0.0;
          upper_[n_ + i] = kInf;
          break;
        case Relation::kGreaterEq:
          lower_[n_ + i] = -kInf;
          upper_[n_ + i] = 0.0;
          break;
        case Relation::kEqual:
          lower_[n_ + i] = 0.0;
          upper_[n_ + i] = 0.0;
          break;
      }
    }
    cols_ = SparseMatrix::FromTriplets(m_, ncols_, triplets);
    for (SparseTriplet& t : triplets) std::swap(t.row, t.col);
    rows_ = SparseMatrix::FromTriplets(ncols_, m_, triplets);

    status_.assign(ncols_, VarStatus::kAtLower);
    basic_.assign(m_, SIZE_MAX);
    x_.assign(ncols_, 0.0);
    work_.Resize(m_);
    dual_.assign(m_, 0.0);
    reduced_.assign(ncols_, 0.0);
    pivot_row_.Resize(ncols_);
  }

  // ---- Eta file ----------------------------------------------------

  // v <- B^-1 v (apply etas in file order).
  void ApplyEtasForward(SparseVector& v) {
    for (const Eta& e : etas_) {
      double vp = v[e.pivot_row];
      ++scope_->pivot_work;
      if (vp == 0.0) continue;
      double t = vp / e.pivot_value;
      v.Set(e.pivot_row, t);
      for (const auto& [r, val] : e.others) v.Add(r, -val * t);
      scope_->pivot_work += e.others.size();
    }
  }

  // y <- B^-T y (apply transposed etas in reverse file order).
  void ApplyEtasTranspose(std::vector<double>& y) {
    for (size_t k = etas_.size(); k > 0; --k) {
      const Eta& e = etas_[k - 1];
      double acc = y[e.pivot_row];
      for (const auto& [r, val] : e.others) acc -= val * y[r];
      y[e.pivot_row] = acc / e.pivot_value;
      scope_->pivot_work += e.others.size() + 1;
    }
  }

  // c - dual_ . A_j, subtracting term by term: the reduced cost of column
  // j under cost c.
  double SubtractDualDot(double c, size_t j) {
    for (size_t k = cols_.ColumnBegin(j); k < cols_.ColumnEnd(j); ++k) {
      c -= dual_[cols_.EntryRow(k)] * cols_.EntryValue(k);
    }
    scope_->pivot_work += cols_.ColumnNnz(j);
    return c;
  }

  // work_ <- B^-1 A_j.
  void Ftran(size_t j) {
    work_.Clear();
    for (size_t k = cols_.ColumnBegin(j); k < cols_.ColumnEnd(j); ++k) {
      work_.Add(cols_.EntryRow(k), cols_.EntryValue(k));
    }
    scope_->pivot_work += cols_.ColumnNnz(j);
    ApplyEtasForward(work_);
  }

  // ---- Factorization -----------------------------------------------

  // Rebuilds the eta file from scratch for the current basic column set
  // (status_ == kBasic), reassigning basic_ rows via partial pivoting.
  // Columns are processed in ascending-nnz order (ties by index) to keep
  // fill low; a column whose pivot candidates are all below kPivotTol is
  // dropped from the basis and the logical of a still-unpivoted row takes
  // its place (basis repair, counted in repairs_). Returns false only if
  // repair fails too.
  bool Refactorize() {
    ++scope_->refactorizations;
    etas_.clear();
    pivots_since_refactor_ = 0;

    std::vector<size_t> cols;
    cols.reserve(m_);
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] == VarStatus::kBasic) cols.push_back(j);
    }
    PSO_CHECK(cols.size() == m_);
    std::sort(cols.begin(), cols.end(), [this](size_t a, size_t b) {
      size_t na = cols_.ColumnNnz(a);
      size_t nb = cols_.ColumnNnz(b);
      return na != nb ? na < nb : a < b;
    });

    row_assigned_.assign(m_, false);
    basic_.assign(m_, SIZE_MAX);
    std::vector<size_t> dropped;
    for (size_t j : cols) {
      if (!FactorColumn(j)) dropped.push_back(j);
    }
    for (size_t j : dropped) {
      // The column is dependent on earlier basis columns: park it at a
      // finite bound and promote the logical of some unpivoted row.
      ++repairs_;
      status_[j] = std::isfinite(lower_[j]) ? VarStatus::kAtLower
                                            : VarStatus::kAtUpper;
      x_[j] = NonbasicValue(j);
      bool repaired = false;
      for (size_t p = 0; p < m_ && !repaired; ++p) {
        if (row_assigned_[p]) continue;
        if (status_[n_ + p] == VarStatus::kBasic) continue;
        status_[n_ + p] = VarStatus::kBasic;
        if (FactorColumn(n_ + p)) {
          repaired = true;
        } else {
          status_[n_ + p] = std::isfinite(lower_[n_ + p])
                                ? VarStatus::kAtLower
                                : VarStatus::kAtUpper;
        }
      }
      if (!repaired) return false;
    }
    return true;
  }

  // Factors one basis column: FTRAN against the etas so far, pivot on the
  // largest-magnitude entry over unassigned rows (smallest row on ties).
  bool FactorColumn(size_t j) {
    Ftran(j);
    size_t best_row = SIZE_MAX;
    double best_mag = kPivotTol;
    for (size_t p : work_.nonzeros()) {
      if (row_assigned_[p]) continue;
      double mag = std::fabs(work_[p]);
      if (mag > best_mag || (mag == best_mag && best_row != SIZE_MAX &&
                             p < best_row)) {
        best_mag = mag;
        best_row = p;
      }
    }
    if (best_row == SIZE_MAX) return false;
    AppendEta(best_row);
    row_assigned_[best_row] = true;
    basic_[best_row] = j;
    return true;
  }

  // Records work_ as an eta pivoting on row p.
  void AppendEta(size_t p) {
    Eta e;
    e.pivot_row = p;
    e.pivot_value = work_[p];
    for (size_t r : work_.nonzeros()) {
      if (r != p && work_[r] != 0.0) e.others.emplace_back(r, work_[r]);
    }
    etas_.push_back(std::move(e));
  }

  // ---- State helpers -----------------------------------------------

  double NonbasicValue(size_t j) const {
    return status_[j] == VarStatus::kAtUpper ? upper_[j] : lower_[j];
  }

  // Solves B x_B = b - A_N x_N and installs the basic values.
  void ComputeBasicValues() {
    work_.Clear();
    for (size_t i = 0; i < m_; ++i) {
      if (rhs_[i] != 0.0) work_.Set(i, rhs_[i]);
    }
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] == VarStatus::kBasic || x_[j] == 0.0) continue;
      for (size_t k = cols_.ColumnBegin(j); k < cols_.ColumnEnd(j); ++k) {
        work_.Add(cols_.EntryRow(k), -cols_.EntryValue(k) * x_[j]);
      }
      scope_->pivot_work += cols_.ColumnNnz(j);
    }
    ApplyEtasForward(work_);
    for (size_t i = 0; i < m_; ++i) x_[basic_[i]] = work_[i];
  }

  double Objective() const {
    double obj = 0.0;
    for (size_t j = 0; j < n_; ++j) obj += cost_[j] * x_[j];
    return obj;
  }

  double TotalViolation() const {
    double total = 0.0;
    for (size_t i = 0; i < m_; ++i) {
      size_t j = basic_[i];
      if (x_[j] < lower_[j] - kFeasTol) total += lower_[j] - x_[j];
      if (x_[j] > upper_[j] + kFeasTol) total += x_[j] - upper_[j];
    }
    return total;
  }

  // ---- Start bases -------------------------------------------------

  // All-logical basis plus a singleton crash: an equality row whose
  // +1-coefficient structural appears in no other row (and has no upper
  // bound to violate) starts that structural basic. L1-fit instances
  // (residual splitting u - v per query) crash completely this way: every
  // u_j is basic, and the basis is dual feasible once each x_i is parked
  // at its upper bound (MakeDualFeasible).
  void ColdStart() {
    for (size_t j = 0; j < n_; ++j) {
      status_[j] = VarStatus::kAtLower;
    }
    for (size_t i = 0; i < m_; ++i) {
      status_[n_ + i] = VarStatus::kBasic;
    }
    // Crash pass, column-major: a structural with exactly one entry,
    // coefficient ~1, infinite upper bound, landing in an equality row
    // whose logical is still basic.
    for (size_t j = 0; j < n_; ++j) {
      if (cols_.ColumnNnz(j) != 1 || upper_[j] != kInf) continue;
      size_t k = cols_.ColumnBegin(j);
      if (std::fabs(cols_.EntryValue(k) - 1.0) > 1e-12) continue;
      size_t r = cols_.EntryRow(k);
      if (lower_[n_ + r] != 0.0 || upper_[n_ + r] != 0.0) continue;
      if (status_[n_ + r] != VarStatus::kBasic) continue;
      status_[n_ + r] = VarStatus::kAtLower;
      status_[j] = VarStatus::kBasic;
    }
    for (size_t j = 0; j < ncols_; ++j) {
      x_[j] = status_[j] == VarStatus::kBasic ? 0.0 : NonbasicValue(j);
    }
  }

  // ---- Dual phase --------------------------------------------------

  // reduced_ <- c - A^T B^-T c_B on the nonbasic columns, 0 on the basic
  // ones.
  void ComputeReducedCosts() {
    bool any_cb = false;
    for (size_t i = 0; i < m_; ++i) {
      dual_[i] = cost_[basic_[i]];
      any_cb = any_cb || dual_[i] != 0.0;
    }
    scope_->pivot_work += m_;
    if (any_cb) ApplyEtasTranspose(dual_);
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] == VarStatus::kBasic) {
        reduced_[j] = 0.0;
      } else {
        reduced_[j] = any_cb ? SubtractDualDot(cost_[j], j) : cost_[j];
      }
    }
  }

  // Parks every nonbasic column that can move at the bound its reduced
  // cost prefers (upper for d < 0, lower for d > 0), which makes the
  // basis dual feasible, and recomputes the basic values. Returns false,
  // changing nothing, when some preferred bound is infinite: then no
  // parking is dual feasible and the dual phase is skipped.
  bool MakeDualFeasible() {
    ComputeReducedCosts();
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      if (reduced_[j] < -kEps && !std::isfinite(upper_[j])) return false;
      if (reduced_[j] > kEps && !std::isfinite(lower_[j])) return false;
    }
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      if (upper_[j] - lower_[j] <= 0.0) continue;  // Fixed: any d is fine.
      if (reduced_[j] < -kEps) {
        status_[j] = VarStatus::kAtUpper;
      } else if (reduced_[j] > kEps) {
        status_[j] = VarStatus::kAtLower;
      }
      x_[j] = NonbasicValue(j);
    }
    ComputeBasicValues();
    return true;
  }

  // Dual pricing: the basic variable with the largest bound violation
  // (lowest row on ties) leaves, at the bound it violates. row ==
  // SIZE_MAX when none violates one by more than kFeasTol.
  DualLeave DualPrice() {
    DualLeave out;
    out.violation = kFeasTol;
    for (size_t i = 0; i < m_; ++i) {
      const size_t j = basic_[i];
      if (x_[j] < lower_[j] && lower_[j] - x_[j] > out.violation) {
        out = DualLeave{i, lower_[j] - x_[j], lower_[j], false};
      } else if (x_[j] > upper_[j] && x_[j] - upper_[j] > out.violation) {
        out = DualLeave{i, x_[j] - upper_[j], upper_[j], true};
      }
    }
    scope_->pivot_work += m_;
    return out;
  }

  // pivot_row_ <- e_r^T B^-1 A over the nonbasic columns that can move.
  // One BTRAN gives rho = B^-T e_r; the row is then summed row by row over
  // rho's nonzeros, which are few while few structurals are basic.
  void ComputePivotRow(size_t r) {
    rho_.assign(m_, 0.0);
    rho_[r] = 1.0;
    ApplyEtasTranspose(rho_);
    pivot_row_.Clear();
    for (size_t i = 0; i < m_; ++i) {
      if (rho_[i] == 0.0) continue;
      for (size_t k = rows_.ColumnBegin(i); k < rows_.ColumnEnd(i); ++k) {
        const size_t j = rows_.EntryRow(k);
        if (status_[j] == VarStatus::kBasic) continue;
        if (upper_[j] - lower_[j] <= 0.0) continue;  // Fixed: never enters.
        pivot_row_.Add(j, rho_[i] * rows_.EntryValue(k));
      }
      scope_->pivot_work += rows_.ColumnNnz(i);
    }
    scope_->pivot_work += m_;
  }

  // The long-step (bound-flipping) ratio test on pivot_row_. A dual step
  // t moves d_j to d_j - t * sign * alpha_j (sign = +1 when the leaving
  // variable falls to its upper bound), so column j's breakpoint is where
  // d_j reaches 0 against its bound. The breakpoints are walked in
  // (ratio, column) order; the dual slope starts at the violation and
  // drops by |alpha_j| (u_j - l_j) at each (to -inf for an infinite
  // range). Columns passed with the slope still positive go first in
  // breakpoints_ (`flips` of them), and the first one it does not pass
  // enters (enter == SIZE_MAX: none does).
  DualRatio DualRatioTest(const DualLeave& leave) {
    const double sign = leave.to_upper ? 1.0 : -1.0;
    breakpoints_.clear();
    for (size_t j : pivot_row_.nonzeros()) {
      const double a = sign * pivot_row_[j];
      const bool at_lower = status_[j] == VarStatus::kAtLower;
      if (at_lower ? a > kEps : a < -kEps) {
        // Tolerance-level dual infeasibility is a zero step.
        breakpoints_.push_back(
            Breakpoint{std::max(0.0, reduced_[j] / a), j});
      }
    }
    std::sort(breakpoints_.begin(), breakpoints_.end(),
              [](const Breakpoint& a, const Breakpoint& b) {
                return a.t != b.t ? a.t < b.t : a.col < b.col;
              });
    DualRatio out;
    double slope = leave.violation;
    for (const Breakpoint& b : breakpoints_) {
      const double range = upper_[b.col] - lower_[b.col];
      slope -= std::fabs(pivot_row_[b.col]) * range;
      if (!(slope > 0.0)) {
        out.enter = b.col;
        break;
      }
      ++out.flips;
    }
    return out;
  }

  // Moves the first `count` breakpoint columns to their other bound and
  // updates x_B with one FTRAN of sum_j A_j dx_j.
  void FlipBounds(size_t count) {
    if (count == 0) return;
    work_.Clear();
    for (size_t f = 0; f < count; ++f) {
      const size_t j = breakpoints_[f].col;
      const bool up = status_[j] == VarStatus::kAtLower;
      const double dx = up ? upper_[j] - lower_[j] : lower_[j] - upper_[j];
      for (size_t k = cols_.ColumnBegin(j); k < cols_.ColumnEnd(j); ++k) {
        work_.Add(cols_.EntryRow(k), cols_.EntryValue(k) * dx);
      }
      scope_->pivot_work += cols_.ColumnNnz(j);
      status_[j] = up ? VarStatus::kAtUpper : VarStatus::kAtLower;
      x_[j] = NonbasicValue(j);
    }
    ApplyEtasForward(work_);
    for (size_t p : work_.nonzeros()) x_[basic_[p]] -= work_[p];
    scope_->pivot_work += work_.nonzeros().size();
    scope_->bound_flips += count;
  }

  // The dual simplex from a dual-feasible basis: each iteration prices a
  // leaving row, forms its pivot row, runs the long-step ratio test,
  // flips the columns it passes and pivots on the one it stops at, which
  // enters just far enough to bring the leaving variable onto its
  // violated bound. Reduced costs are updated each step and recomputed
  // after each refactorization. Returns why the phase stopped: "optimal"
  // (no basic variable violates a bound) or a breakdown, after which the
  // primal phases take over from the basis left here: "no_breakpoint"
  // (the dual ray is unbounded), "small_pivot" (below kPivotTol),
  // "repair" (a refactorization replaced a dependent column) or "stall"
  // (more than kBlandStreak dual-degenerate pivots in a row). Errors are
  // the iteration limit and a failed refactorization, as in the primal
  // phases.
  Result<const char*> RunDual(size_t* steps, bool tracing) {
    lp_internal::PivotSink sink{tracing};
    size_t degenerate_streak = 0;
    while (true) {
      if (++*steps > kMaxIterations) {
        PSO_LOG(WARN).Field("iterations", scope_->total_iterations)
            << "LP dual iteration limit exceeded";
        return Status::Internal("dual iteration limit exceeded");
      }
      const DualLeave leave = DualPrice();
      if (leave.row == SIZE_MAX) return "optimal";
      ComputePivotRow(leave.row);
      const DualRatio ratio = DualRatioTest(leave);
      if (ratio.enter == SIZE_MAX) return "no_breakpoint";
      const size_t q = ratio.enter;
      const double alpha_q = pivot_row_[q];
      if (std::fabs(alpha_q) < kPivotTol) return "small_pivot";
      FlipBounds(ratio.flips);

      const size_t r = leave.row;
      const size_t leaving = basic_[r];
      Ftran(q);
      const double pivot = work_[r];
      if (std::fabs(pivot) < kPivotTol) return "small_pivot";
      const double step = (x_[leaving] - leave.target) / pivot;
      for (size_t p : work_.nonzeros()) x_[basic_[p]] -= step * work_[p];
      scope_->pivot_work += work_.nonzeros().size();
      x_[q] += step;
      const double dual_step = reduced_[q] / alpha_q;
      degenerate_streak =
          std::fabs(dual_step) <= kEps ? degenerate_streak + 1 : 0;
      for (size_t j : pivot_row_.nonzeros()) {
        reduced_[j] -= dual_step * pivot_row_[j];
      }
      reduced_[q] = 0.0;
      reduced_[leaving] = -dual_step;
      status_[leaving] =
          leave.to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      x_[leaving] = NonbasicValue(leaving);
      status_[q] = VarStatus::kBasic;
      AppendEta(r);
      basic_[r] = q;
      ++scope_->eta_updates;
      ++pivots_since_refactor_;
      ++scope_->total_iterations;
      ++scope_->dual_iterations;
      if (sink.Wants()) sink.OnPivot(q, leaving, Objective());
      bool repaired = false;
      if (pivots_since_refactor_ >= kRefactorInterval) {
        const size_t repairs = repairs_;
        if (!Refactorize()) {
          basis_lost_ = true;
          return Status::Internal("basis refactorization failed");
        }
        ComputeBasicValues();
        repaired = repairs_ != repairs;
        if (!repaired) ComputeReducedCosts();
      }
      StepDone(/*phase=*/0, *steps, tracing);
      if (repaired) return "repair";
      // Ties in the ratio test give no anti-cycling guarantee; the primal
      // phases have one (Bland's rule).
      if (degenerate_streak > kBlandStreak) return "stall";
    }
  }

  // ---- Simplex core ------------------------------------------------

  // Computes duals for the current phase objective and scans nonbasic
  // columns for the best eligible entering candidate. Phase-1 costs are
  // the composite infeasibility gradient on basic variables (zero on
  // nonbasic ones), so feasibility, once attained, is preserved.
  Pricing Price(bool phase1, bool bland) {
    Pricing out;
    bool any_cb = false;
    for (size_t i = 0; i < m_; ++i) {
      size_t j = basic_[i];
      double cb = 0.0;
      if (phase1) {
        if (x_[j] < lower_[j] - kFeasTol) {
          cb = -1.0;
          out.any_infeasible = true;
          out.total_violation += lower_[j] - x_[j];
        } else if (x_[j] > upper_[j] + kFeasTol) {
          cb = 1.0;
          out.any_infeasible = true;
          out.total_violation += x_[j] - upper_[j];
        }
      } else {
        cb = cost_[j];
      }
      dual_[i] = cb;
      any_cb = any_cb || cb != 0.0;
    }
    scope_->pivot_work += m_;
    if (phase1 && !out.any_infeasible) return out;  // Feasible: phase done.
    if (any_cb) ApplyEtasTranspose(dual_);

    double best = kEps;
    for (size_t j = 0; j < ncols_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      if (upper_[j] - lower_[j] <= 0.0) continue;  // Fixed: cannot move.
      double d = phase1 ? 0.0 : cost_[j];
      if (any_cb) d = SubtractDualDot(d, j);
      bool eligible = status_[j] == VarStatus::kAtLower ? d < -kEps
                                                          : d > kEps;
      if (!eligible) continue;
      if (bland) {  // First eligible index: guarantees termination.
        out.enter = j;
        out.reduced = d;
        break;
      }
      if (std::fabs(d) > best) {
        best = std::fabs(d);
        out.enter = j;
        out.reduced = d;
      }
    }
    return out;
  }

  // Bounded-variable ratio test on work_ = B^-1 A_q. `dir` is +1 when q
  // enters rising off its lower bound, -1 when falling off its upper. In
  // phase 1 an infeasible basic variable blocks only when the step would
  // carry it *to* its violated bound (crossing would flip its gradient);
  // feasible basics block at whichever bound the step pushes them toward.
  // The entering variable's own bound gap competes as a bound flip.
  Ratio RatioTest(size_t q, bool phase1, double dir) {
    Ratio out;
    double best_t = upper_[q] - lower_[q];  // May be +inf.
    for (size_t p : work_.nonzeros()) {
      double wv = work_[p];
      if (std::fabs(wv) <= kPivotTol) continue;
      double alpha = dir * wv;  // x_basic(t) = x_basic - t * alpha.
      size_t j = basic_[p];
      double xj = x_[j];
      double t;
      bool hit_upper;
      if (phase1 && xj < lower_[j] - kFeasTol) {
        if (alpha >= 0.0) continue;  // Worsens; objective already counts it.
        t = (xj - lower_[j]) / alpha;
        hit_upper = false;
      } else if (phase1 && xj > upper_[j] + kFeasTol) {
        if (alpha <= 0.0) continue;
        t = (xj - upper_[j]) / alpha;
        hit_upper = true;
      } else if (alpha > 0.0) {
        if (!std::isfinite(lower_[j])) continue;
        t = (xj - lower_[j]) / alpha;
        hit_upper = false;
      } else {
        if (!std::isfinite(upper_[j])) continue;
        t = (xj - upper_[j]) / alpha;
        hit_upper = true;
      }
      if (t < 0.0) t = 0.0;  // Tolerance-level infeasibility: degenerate.
      bool take;
      if (!out.has_leave) {
        // Current best is the bound flip (or +inf): prefer a basis pivot
        // on near-ties — it makes progress the dual simplex can reuse.
        take = t <= best_t + kEps;
      } else {
        take = t < best_t - kEps ||
               (t <= best_t + kEps && j < basic_[out.leave_row]);
      }
      if (take) {
        best_t = std::min(best_t, t);
        out.has_leave = true;
        out.leave_row = p;
        out.leave_at_upper = hit_upper;
      }
    }
    if (!out.has_leave && !std::isfinite(best_t)) {
      out.unbounded = true;
      return out;
    }
    out.t = best_t;
    return out;
  }

  // Executes one entering step: FTRAN, ratio test, then either a bound
  // flip (no basis change, not counted as an iteration) or a pivot
  // (basic set update + eta append + periodic refactorization).
  Status Step(size_t q, bool phase1, size_t* degenerate_streak,
              lp_internal::PivotSink* sink) {
    double dir = status_[q] == VarStatus::kAtLower ? 1.0 : -1.0;
    Ftran(q);
    Ratio r = RatioTest(q, phase1, dir);
    if (r.unbounded) {
      if (phase1) {
        // A phase-1 ray cannot exist (every improving direction is blocked
        // by the infeasible variable generating it); reaching here means
        // the factorization has degraded beyond the tolerances.
        return Status::Internal("phase-1 ray: numerically singular basis");
      }
      return Status::Unbounded(StrFormat(
          "objective improves without bound along column %zu", q));
    }

    // Move the basic variables along the step.
    if (r.t != 0.0) {
      for (size_t p : work_.nonzeros()) {
        double wv = work_[p];
        if (wv == 0.0) continue;
        x_[basic_[p]] -= r.t * dir * wv;
      }
      scope_->pivot_work += work_.nonzeros().size();
    }

    if (!r.has_leave) {
      // Bound flip: q traverses its whole gap and parks on the other side.
      status_[q] = dir > 0.0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
      x_[q] = NonbasicValue(q);
      ++scope_->bound_flips;
      return Status::Ok();
    }

    size_t p = r.leave_row;
    size_t leaving = basic_[p];
    x_[q] += dir * r.t;
    status_[leaving] =
        r.leave_at_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    x_[leaving] = NonbasicValue(leaving);  // Snap off rounding drift.
    status_[q] = VarStatus::kBasic;
    AppendEta(p);
    basic_[p] = q;
    ++scope_->eta_updates;
    ++pivots_since_refactor_;
    *degenerate_streak = r.t <= kEps ? *degenerate_streak + 1 : 0;
    ++scope_->total_iterations;
    if (phase1) ++scope_->phase1_iterations;
    if (sink->Wants()) {
      sink->OnPivot(q, leaving, phase1 ? TotalViolation() : Objective());
    }
    if (pivots_since_refactor_ >= kRefactorInterval) {
      if (!Refactorize()) {
        basis_lost_ = true;
        return Status::Internal("basis refactorization failed");
      }
      ComputeBasicValues();
    }
    return Status::Ok();
  }

  // ---- Driver ------------------------------------------------------

  Result<LpSolution> Run(bool tracing) {
    ColdStart();
    if (!Refactorize()) {
      // The cold basis is triangular by construction; this cannot fire
      // unless the instance itself is numerically broken.
      return Status::Internal("cold-start basis is singular");
    }
    ComputeBasicValues();

    size_t steps = 0;
    size_t degenerate_streak = 0;

    // ---- Dual phase: from a dual-feasible start, drive out basic bound
    // violations while keeping dual feasibility. ----
    // It ends optimal or in a breakdown; either way the primal phases
    // below take over from its basis, so a clean finish costs them one
    // pricing pass and no pivots.
    if (MakeDualFeasible()) {
      trace::Span dual_span("lp.dual");
      Result<const char*> exit = RunDual(&steps, tracing);
      if (!exit.ok()) return exit.status();
      // The dual steps update x_B incrementally, and parking a column at
      // a huge bound can swamp the small terms; the primal phases start
      // from values solved afresh.
      ComputeBasicValues();
      if (dual_span.active()) {
        dual_span.Arg("pivots", std::to_string(scope_->dual_iterations));
        dual_span.Arg("exit", *exit);
      }
    }

    // ---- Phase 1: drive out basic bound violations. ----
    // The span always opens, even for a feasible (crashed or dual-solved)
    // start: a zero-pivot phase 1 documents "feasible on arrival".
    {
      trace::Span phase1_span("lp.phase1");
      lp_internal::PivotSink sink{tracing};
      while (true) {
        if (++steps > kMaxIterations) {
          PSO_LOG(WARN).Field("iterations", scope_->total_iterations)
              << "LP phase-1 iteration limit exceeded";
          return Status::Internal("phase-1 iteration limit exceeded");
        }
        Pricing pr = Price(/*phase1=*/true, degenerate_streak > kBlandStreak);
        if (!pr.any_infeasible) break;
        if (pr.enter == SIZE_MAX) {
          if (pr.total_violation > kInfeasTol) {
            PSO_LOG(DEBUG).Field("residual", pr.total_violation)
                << "LP infeasible";
            return Status::Infeasible(
                StrFormat("phase-1 residual %.3g", pr.total_violation));
          }
          break;  // Violations below tolerance: accept as feasible.
        }
        Status step = Step(pr.enter, /*phase1=*/true, &degenerate_streak,
                           &sink);
        if (!step.ok()) return step;
        StepDone(/*phase=*/1, steps, tracing);
      }
      if (phase1_span.active()) {
        phase1_span.Arg("pivots", std::to_string(scope_->phase1_iterations));
      }
    }

    // ---- Phase 2: optimize. ----
    trace::Span phase2_span("lp.phase2");
    lp_internal::PivotSink sink{tracing};
    degenerate_streak = 0;
    while (true) {
      if (++steps > kMaxIterations) {
        PSO_LOG(WARN).Field("iterations", scope_->total_iterations)
            << "LP phase-2 iteration limit exceeded";
        return Status::Internal("phase-2 iteration limit exceeded");
      }
      Pricing pr = Price(/*phase1=*/false, degenerate_streak > kBlandStreak);
      if (pr.enter == SIZE_MAX) break;  // Optimal.
      Status step = Step(pr.enter, /*phase1=*/false, &degenerate_streak,
                         &sink);
      if (!step.ok()) return step;
      StepDone(/*phase=*/2, steps, tracing);
    }
    if (phase2_span.active()) {
      phase2_span.Arg("pivots", std::to_string(scope_->phase2_iterations()));
    }

    LpSolution sol;
    sol.values.assign(n_, 0.0);
    for (size_t j = 0; j < n_; ++j) {
      // Clamp tolerance-level drift so callers can rely on bounds.
      double v = x_[j];
      if (v < lower_[j]) v = lower_[j];
      if (v > upper_[j]) v = upper_[j];
      sol.values[j] = v;
    }
    double obj = 0.0;
    for (size_t j = 0; j < n_; ++j) obj += cost_[j] * sol.values[j];
    sol.objective = obj;
    sol.iterations = scope_->total_iterations;
    return sol;
  }

  // Emits the final heartbeat of a traced solve that completed any step.
  // It repeats the last completed step's stats: nothing has moved since,
  // except after a failed refactorization, which leaves no basis to
  // evaluate and so no final beat.
  void FinalBeat() {
    if (heartbeat_.work() > 0 && !basis_lost_) EmitHeartbeat("final");
  }

 private:
  // Called after each completed step of phase `phase` (0 for the dual
  // phase, 1 and 2 for the primal phases): at the cadence boundary,
  // publishes the counters so far and traces a heartbeat.
  void StepDone(int phase, size_t steps, bool tracing) {
    last_phase_ = phase;
    if (!heartbeat_.Due(steps)) return;
    scope_->Publish();
    if (tracing) EmitHeartbeat("tick");
  }

  void EmitHeartbeat(const char* beat) {
    progress::EmitInstant(
        "simplex", beat, heartbeat_.work(),
        {{"pivots", static_cast<double>(scope_->total_iterations)},
         {"refactorizations", static_cast<double>(scope_->refactorizations)},
         {"objective", last_phase_ == 1 ? TotalViolation() : Objective()},
         {"lp_phase", static_cast<double>(last_phase_)}});
  }

  size_t n_ = 0;
  size_t m_ = 0;
  size_t ncols_ = 0;
  SparseMatrix cols_;
  SparseMatrix rows_;  // The same matrix row-wise: column i is row i.
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> cost_;
  std::vector<double> rhs_;

  std::vector<VarStatus> status_;
  std::vector<size_t> basic_;
  std::vector<double> x_;
  std::vector<Eta> etas_;
  std::vector<bool> row_assigned_;
  SparseVector work_;
  std::vector<double> dual_;
  std::vector<double> reduced_;  // Dual phase: reduced cost per column.
  std::vector<double> rho_;      // Dual phase: B^-T e_r.
  SparseVector pivot_row_;       // Dual phase: e_r^T B^-1 A.
  std::vector<Breakpoint> breakpoints_;  // Dual phase: sorted ratios.
  size_t pivots_since_refactor_ = 0;
  size_t repairs_ = 0;  // Columns Refactorize dropped from the basis.
  lp_internal::SolveScope* scope_;
  progress::Heartbeat heartbeat_{kHeartbeatEvery};
  int last_phase_ = 0;       // Phase of the last completed step (StepDone).
  bool basis_lost_ = false;  // A refactorization failed mid-solve.
};

}  // namespace

Result<LpSolution> SolveRevisedSimplex(const LpInstance& model) {
  lp_internal::SolveScope scope;
  PSO_NAMED_SPAN(solve_span, "lp.solve");
  const bool tracing = solve_span.active();
  if (tracing) {
    solve_span.Arg("vars", std::to_string(model.variables.size()));
    solve_span.Arg("constraints", std::to_string(model.rows.size()));
  }
  SimplexState state(model, &scope);
  Result<LpSolution> result = state.Run(tracing);
  if (tracing) state.FinalBeat();
  if (result.ok() && tracing) {
    solve_span.Arg("pivots", std::to_string(result->iterations));
  }
  return result;
}

}  // namespace pso
