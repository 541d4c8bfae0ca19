#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace pso {

void RunningStats::Add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double total = na + nb;
  mean_ += (other.mean_ - mean_) * nb / total;
  count_ += other.count_;
}

void BernoulliEstimator::Add(bool success) {
  ++trials_;
  if (success) ++successes_;
}

void BernoulliEstimator::Merge(const BernoulliEstimator& other) {
  trials_ += other.trials_;
  successes_ += other.successes_;
}

double BernoulliEstimator::rate() const {
  if (trials_ == 0) return 0.0;
  return static_cast<double>(successes_) / static_cast<double>(trials_);
}

Interval BernoulliEstimator::WilsonInterval(double z) const {
  if (trials_ == 0) return {0.0, 1.0};
  double n = static_cast<double>(trials_);
  double p = rate();
  double z2 = z * z;
  double denom = 1.0 + z2 / n;
  double center = (p + z2 / (2.0 * n)) / denom;
  double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

double BaselineIsolationProbability(size_t n, double w) {
  if (n == 0 || w <= 0.0 || w >= 1.0) return 0.0;
  double nn = static_cast<double>(n);
  // Compute in log space to survive large n and tiny w.
  double log_p = std::log(nn) + std::log(w) + (nn - 1.0) * std::log1p(-w);
  return std::exp(log_p);
}

}  // namespace pso
