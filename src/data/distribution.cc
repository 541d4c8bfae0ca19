#include "data/distribution.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pso {

Dataset Distribution::SampleDataset(size_t n, Rng& rng) const {
  Dataset out(schema());
  for (size_t i = 0; i < n; ++i) out.Append(Sample(rng));
  return out;
}

Marginal::Marginal(int64_t min_value, std::vector<double> weights)
    : min_value_(min_value) {
  PSO_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    PSO_CHECK(w >= 0.0);
    total += w;
  }
  PSO_CHECK(total > 0.0);
  probs_.reserve(weights.size());
  for (double w : weights) probs_.push_back(w / total);
  cumulative_.resize(probs_.size());
  double acc = 0.0;
  for (size_t i = 0; i < probs_.size(); ++i) {
    acc += probs_[i];
    cumulative_[i] = acc;
  }
  sampler_ = std::make_shared<const DiscreteSampler>(probs_);
}

Marginal Marginal::Uniform(int64_t min_value, int64_t max_value) {
  PSO_CHECK(min_value <= max_value);
  size_t count = static_cast<size_t>(max_value - min_value + 1);
  return Marginal(min_value, std::vector<double>(count, 1.0));
}

Marginal Marginal::Zipf(int64_t min_value, int64_t count, double s) {
  PSO_CHECK(count > 0);
  std::vector<double> w(static_cast<size_t>(count));
  for (int64_t r = 0; r < count; ++r) {
    w[static_cast<size_t>(r)] = 1.0 / std::pow(static_cast<double>(r + 1), s);
  }
  return Marginal(min_value, std::move(w));
}

int64_t Marginal::Sample(Rng& rng) const {
  return min_value_ + static_cast<int64_t>(sampler_->Sample(rng));
}

double Marginal::Probability(int64_t v) const {
  int64_t idx = v - min_value_;
  if (idx < 0 || idx >= static_cast<int64_t>(probs_.size())) return 0.0;
  return probs_[static_cast<size_t>(idx)];
}

double Marginal::MassInRange(int64_t lo, int64_t hi) const {
  if (hi < lo) return 0.0;
  int64_t a = std::max(lo, min_value_) - min_value_;
  int64_t b = std::min(hi, max_value()) - min_value_;
  if (b < a) return 0.0;
  double upper = cumulative_[static_cast<size_t>(b)];
  double lower = (a == 0) ? 0.0 : cumulative_[static_cast<size_t>(a - 1)];
  return upper - lower;
}

ProductDistribution::ProductDistribution(Schema schema,
                                         std::vector<Marginal> marginals)
    : schema_(std::move(schema)), marginals_(std::move(marginals)) {
  PSO_CHECK(marginals_.size() == schema_.NumAttributes());
  for (size_t i = 0; i < marginals_.size(); ++i) {
    const Attribute& a = schema_.attribute(i);
    PSO_CHECK_MSG(marginals_[i].min_value() >= a.MinValue() &&
                      marginals_[i].max_value() <= a.MaxValue(),
                  "marginal support exceeds attribute domain");
  }
}

ProductDistribution ProductDistribution::UniformOver(const Schema& schema) {
  std::vector<Marginal> ms;
  ms.reserve(schema.NumAttributes());
  for (size_t i = 0; i < schema.NumAttributes(); ++i) {
    const Attribute& a = schema.attribute(i);
    ms.push_back(Marginal::Uniform(a.MinValue(), a.MaxValue()));
  }
  return ProductDistribution(schema, std::move(ms));
}

Record ProductDistribution::Sample(Rng& rng) const {
  Record r;
  r.reserve(marginals_.size());
  for (const Marginal& m : marginals_) r.push_back(m.Sample(rng));
  return r;
}

double ProductDistribution::RecordProbability(const Record& record) const {
  if (record.size() != marginals_.size()) return 0.0;
  double p = 1.0;
  for (size_t i = 0; i < marginals_.size(); ++i) {
    p *= marginals_[i].Probability(record[i]);
    if (p == 0.0) return 0.0;
  }
  return p;
}

const Marginal& ProductDistribution::marginal(size_t attr) const {
  PSO_CHECK(attr < marginals_.size());
  return marginals_[attr];
}

}  // namespace pso
