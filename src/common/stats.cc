#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pso {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
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
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
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

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double Quantile(std::vector<double> xs, double q) {
  PSO_CHECK(!xs.empty());
  PSO_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace pso
