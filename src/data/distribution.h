// Data-generating distributions D over the record universe X.
//
// The PSO game (Section 2.2 of the paper) models records as i.i.d. draws
// from a distribution D that may be unknown to the attacker. We provide:
//   * Distribution       — abstract sampling + exact pointwise probability
//   * ProductDistribution — independent per-attribute marginals (the
//     workhorse; supports exact predicate weights for per-attribute
//     predicates).

#ifndef PSO_DATA_DISTRIBUTION_H_
#define PSO_DATA_DISTRIBUTION_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace pso {

/// A distribution over records of a fixed schema.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Schema of the records this distribution produces.
  virtual const Schema& schema() const = 0;

  /// Draws one record.
  virtual Record Sample(Rng& rng) const = 0;

  /// Exact probability mass of `record` (0 if out of support).
  virtual double RecordProbability(const Record& record) const = 0;

  /// Draws an i.i.d. dataset of `n` records.
  Dataset SampleDataset(size_t n, Rng& rng) const;
};

/// Marginal distribution of a single attribute.
class Marginal {
 public:
  /// Categorical/integer marginal with explicit weights over the attribute
  /// domain codes [min_value, min_value + weights.size()).
  Marginal(int64_t min_value, std::vector<double> weights);

  /// Uniform marginal over [min_value, max_value].
  static Marginal Uniform(int64_t min_value, int64_t max_value);

  /// Zipf(s) marginal over `count` values starting at `min_value`
  /// (probability of rank r proportional to 1/r^s).
  static Marginal Zipf(int64_t min_value, int64_t count, double s);

  /// Draws a value code.
  int64_t Sample(Rng& rng) const;

  /// Probability of value code `v` (0 outside the support).
  double Probability(int64_t v) const;

  /// Total mass of codes in [lo, hi] intersected with the support.
  double MassInRange(int64_t lo, int64_t hi) const;

  int64_t min_value() const { return min_value_; }
  int64_t max_value() const {
    return min_value_ + static_cast<int64_t>(probs_.size()) - 1;
  }

 private:
  int64_t min_value_;
  std::vector<double> probs_;  // normalized
  std::vector<double> cumulative_;
  // Shared, immutable alias table; makes Marginal cheaply copyable.
  std::shared_ptr<const DiscreteSampler> sampler_;
};

/// Independent product of per-attribute marginals.
class ProductDistribution : public Distribution {
 public:
  /// One marginal per schema attribute; marginal supports must lie inside
  /// the attribute domains.
  ProductDistribution(Schema schema, std::vector<Marginal> marginals);

  /// Uniform product distribution over the whole schema domain.
  static ProductDistribution UniformOver(const Schema& schema);

  const Schema& schema() const override { return schema_; }
  Record Sample(Rng& rng) const override;
  double RecordProbability(const Record& record) const override;

  const Marginal& marginal(size_t attr) const;

 private:
  Schema schema_;
  std::vector<Marginal> marginals_;
};

}  // namespace pso

#endif  // PSO_DATA_DISTRIBUTION_H_
