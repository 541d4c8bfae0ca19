// Summary statistics and confidence intervals for Monte-Carlo experiments.
//
// Every empirical claim in the benches (attack success probabilities,
// reconstruction accuracies) is reported with a Wilson confidence interval
// so "negligible" vs "constant" success can be distinguished rigorously.

#ifndef PSO_COMMON_STATS_H_
#define PSO_COMMON_STATS_H_

#include <cstddef>

namespace pso {

/// A [lo, hi] interval around a point estimate.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Online accumulator for the mean.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Folds `other`'s observations into this accumulator. Merging
  /// per-chunk accumulators in chunk-index order reproduces the
  /// single-stream mean to floating-point accuracy, deterministically for
  /// a fixed chunking.
  void Merge(const RunningStats& other);

  double mean() const { return mean_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
};

/// Bernoulli success counter with Wilson-score confidence intervals.
///
/// The Wilson interval behaves sensibly at 0 and k/n extremes, which matters
/// when measuring attack probabilities expected to be negligible.
class BernoulliEstimator {
 public:
  /// Records one trial.
  void Add(bool success);

  /// Folds `other`'s counts into this estimator (exact; order-free).
  void Merge(const BernoulliEstimator& other);

  /// Point estimate k/n (0 when no trials).
  double rate() const;

  /// Wilson score interval at confidence z (default z = 1.96 for 95%).
  Interval WilsonInterval(double z = 1.96) const;

 private:
  size_t trials_ = 0;
  size_t successes_ = 0;
};

/// Exact binomial probability that a weight-`w` predicate isolates in an
/// i.i.d. sample of size `n`: n * w * (1-w)^(n-1). This is the paper's
/// baseline curve for trivial (output-ignoring) attackers (Section 2.2).
double BaselineIsolationProbability(size_t n, double w);

}  // namespace pso

#endif  // PSO_COMMON_STATS_H_
