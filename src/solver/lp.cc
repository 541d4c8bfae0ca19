#include "solver/lp.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"
#include "solver/revised_simplex.h"

namespace pso {

bool LpProblem::CoefficientsInMagnitudeRange(
    const std::vector<std::pair<size_t, double>>& coeffs) {
  bool ascending = true;
  for (size_t k = 0; k < coeffs.size(); ++k) {
    if (!InMagnitudeRange(coeffs[k].second)) return false;
    if (k > 0 && coeffs[k - 1].first >= coeffs[k].first) ascending = false;
  }
  if (ascending) return true;  // No repeated variable (every decoding row).
  std::vector<std::pair<size_t, double>> sorted = coeffs;
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t k = 0; k < sorted.size();) {
    double sum = sorted[k].second;
    size_t end = k + 1;
    for (; end < sorted.size() && sorted[end].first == sorted[k].first;
         ++end) {
      sum += sorted[end].second;
    }
    if (!InMagnitudeRange(sum)) return false;
    k = end;
  }
  return true;
}

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
    } else if (!InMagnitudeRange(lb) ||
               (std::isfinite(ub) && !InMagnitudeRange(ub))) {
      build_status_ = Status::InvalidArgument(StrFormat(
          "variable %zu: finite bound in [%g, %g] is neither 0 nor of "
          "magnitude in [%g, %g]",
          instance_.variables.size(), lb, ub, kMinMagnitude, kMaxMagnitude));
    } else if (!InMagnitudeRange(cost)) {
      build_status_ = Status::InvalidArgument(StrFormat(
          "variable %zu: cost %g is neither 0 nor of magnitude in [%g, %g]",
          instance_.variables.size(), cost, kMinMagnitude, kMaxMagnitude));
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
    }
    if (build_status_.ok() && !CoefficientsInMagnitudeRange(coeffs)) {
      build_status_ = Status::InvalidArgument(StrFormat(
          "constraint %zu: a coefficient, or the sum of a variable's "
          "repeated coefficients, is neither 0 nor of magnitude in [%g, %g]",
          instance_.rows.size(), kMinMagnitude, kMaxMagnitude));
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
