#include "solver/lp.h"

#include <cmath>

#include "common/str_util.h"
#include "solver/revised_simplex.h"

namespace pso {

size_t LpProblem::AddVariable(double lb, double ub, double cost) {
  // Malformed bounds poison the problem instead of aborting: Solve()
  // returns build_status_, which keeps the whole builder surface safe for
  // untrusted (fuzzed/decoded) instances. A placeholder variable is still
  // appended so returned indices stay dense and later calls stay in range.
  if (build_status_.ok()) {
    if (!std::isfinite(lb)) {
      build_status_ = Status::InvalidArgument(
          StrFormat("variable %zu: lower bound must be finite",
                    instance_.variables.size()));
    } else if (std::isnan(ub) || lb > ub) {
      build_status_ = Status::InvalidArgument(
          StrFormat("variable %zu: empty bounds [%g, %g]",
                    instance_.variables.size(), lb, ub));
    } else if (std::fabs(lb) > kMaxFiniteBound ||
               (std::isfinite(ub) && std::fabs(ub) > kMaxFiniteBound)) {
      build_status_ = Status::InvalidArgument(StrFormat(
          "variable %zu: finite bound beyond %g in [%g, %g]",
          instance_.variables.size(), kMaxFiniteBound, lb, ub));
    } else if (!std::isfinite(cost)) {
      build_status_ = Status::InvalidArgument(StrFormat(
          "variable %zu: cost must be finite", instance_.variables.size()));
    }
  }
  if (!build_status_.ok()) {
    instance_.variables.push_back(LpInstance::Variable{0.0, 0.0, 0.0});
    return instance_.variables.size() - 1;
  }
  instance_.variables.push_back(LpInstance::Variable{lb, ub, cost});
  return instance_.variables.size() - 1;
}

void LpProblem::AddConstraint(
    const std::vector<std::pair<size_t, double>>& coeffs, Relation rel,
    double rhs) {
  if (build_status_.ok()) {
    for (const auto& [idx, coeff] : coeffs) {
      if (idx >= instance_.variables.size()) {
        build_status_ = Status::InvalidArgument(
            StrFormat("constraint %zu references unknown variable %zu",
                      instance_.rows.size(), idx));
        break;
      }
      if (!std::isfinite(coeff)) {
        build_status_ = Status::InvalidArgument(StrFormat(
            "constraint %zu: coefficient of variable %zu must be finite",
            instance_.rows.size(), idx));
        break;
      }
    }
    if (build_status_.ok() && !std::isfinite(rhs)) {
      build_status_ = Status::InvalidArgument(
          StrFormat("constraint %zu: right-hand side must be finite",
                    instance_.rows.size()));
    }
  }
  if (!build_status_.ok()) return;
  instance_.rows.push_back(LpInstance::Row{coeffs, rel, rhs});
}

Result<LpSolution> LpProblem::Solve() const {
  if (!build_status_.ok()) return build_status_;
  return SolveRevisedSimplex(instance_);
}

}  // namespace pso
