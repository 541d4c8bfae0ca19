#include "recon/oracle.h"

#include <cmath>

#include "common/check.h"

namespace pso::recon {

SubsetSumOracle::SubsetSumOracle(std::vector<uint8_t> bits)
    : bits_(std::move(bits)) {
  PSO_CHECK(!bits_.empty());
  for (uint8_t b : bits_) PSO_CHECK(b <= 1);
}

double SubsetSumOracle::Answer(const SubsetQuery& query) {
  PSO_CHECK(query.size() == bits_.size());
  double exact = 0.0;
  for (size_t i = 0; i < bits_.size(); ++i) {
    if (query[i] != 0) exact += static_cast<double>(bits_[i]);
  }
  return Perturb(query, exact, rng_);
}

ExactOracle::ExactOracle(std::vector<uint8_t> bits)
    : SubsetSumOracle(std::move(bits)) {}

BoundedNoiseOracle::BoundedNoiseOracle(std::vector<uint8_t> bits,
                                       double alpha, uint64_t seed)
    : SubsetSumOracle(std::move(bits)), alpha_(alpha) {
  PSO_CHECK(alpha >= 0.0);
  rng() = Rng(seed);
}

double BoundedNoiseOracle::Perturb(const SubsetQuery&, double exact,
                                   Rng& rng) {
  if (alpha_ == 0.0) return exact;
  return exact + (rng.UniformDouble() * 2.0 - 1.0) * alpha_;
}

RoundingOracle::RoundingOracle(std::vector<uint8_t> bits, double granularity)
    : SubsetSumOracle(std::move(bits)), granularity_(granularity) {
  PSO_CHECK(granularity > 0.0);
}

double RoundingOracle::Perturb(const SubsetQuery&, double exact, Rng&) {
  return std::round(exact / granularity_) * granularity_;
}

LaplaceOracle::LaplaceOracle(std::vector<uint8_t> bits, double eps_per_query,
                             uint64_t seed)
    : SubsetSumOracle(std::move(bits)), eps_(eps_per_query) {
  PSO_CHECK(eps_per_query > 0.0);
  rng() = Rng(seed);
}

double LaplaceOracle::Perturb(const SubsetQuery&, double exact,
                              Rng& rng) {
  return exact + rng.Laplace(1.0 / eps_);
}

DecoyOracle::DecoyOracle(std::vector<uint8_t> bits, size_t flips,
                         uint64_t seed)
    : SubsetSumOracle(bits), decoy_(std::move(bits)) {
  PSO_CHECK(flips <= decoy_.size());
  Rng flip_rng(seed);
  for (size_t i : flip_rng.SampleWithoutReplacement(decoy_.size(), flips)) {
    decoy_[i] = 1 - decoy_[i];
  }
}

double DecoyOracle::Perturb(const SubsetQuery& query, double, Rng&) {
  // Answer exactly, but about the decoy.
  double sum = 0.0;
  for (size_t i = 0; i < decoy_.size(); ++i) {
    if (query[i] != 0) sum += static_cast<double>(decoy_[i]);
  }
  return sum;
}

std::vector<uint8_t> RandomBits(size_t n, Rng& rng) {
  std::vector<uint8_t> bits(n);
  for (auto& b : bits) b = rng.Bernoulli(0.5) ? 1 : 0;
  return bits;
}

double FractionAgree(const std::vector<uint8_t>& estimate,
                     const std::vector<uint8_t>& truth) {
  PSO_CHECK(estimate.size() == truth.size());
  PSO_CHECK(!truth.empty());
  size_t agree = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (estimate[i] == truth[i]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(truth.size());
}

}  // namespace pso::recon
