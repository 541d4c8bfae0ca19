#include "dp/accountant.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pso::dp {

void PrivacyAccountant::Spend(double eps, double delta) {
  PSO_CHECK(eps >= 0.0);
  PSO_CHECK(delta >= 0.0 && delta < 1.0);
  spends_.push_back(PrivacyGuarantee{eps, delta});
}

PrivacyGuarantee PrivacyAccountant::BasicComposition() const {
  PrivacyGuarantee g;
  for (const auto& s : spends_) {
    g.eps += s.eps;
    g.delta += s.delta;
  }
  return g;
}

PrivacyGuarantee PrivacyAccountant::AdvancedComposition(
    double delta_slack) const {
  PSO_CHECK(delta_slack > 0.0 && delta_slack < 1.0);
  if (spends_.empty()) return {0.0, 0.0};
  double max_eps = 0.0;
  double sum_delta = 0.0;
  for (const auto& s : spends_) {
    max_eps = std::max(max_eps, s.eps);
    sum_delta += s.delta;
  }
  double k = static_cast<double>(spends_.size());
  double eps = std::sqrt(2.0 * k * std::log(1.0 / delta_slack)) * max_eps +
               k * max_eps * (std::exp(max_eps) - 1.0);
  return {eps, sum_delta + delta_slack};
}

PrivacyGuarantee PrivacyAccountant::BestBound(double delta_slack) const {
  PrivacyGuarantee basic = BasicComposition();
  PrivacyGuarantee advanced = AdvancedComposition(delta_slack);
  return (advanced.eps < basic.eps) ? advanced : basic;
}

}  // namespace pso::dp
