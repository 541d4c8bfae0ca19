// Noisy subset-sum query oracles (the mechanism of Theorem 1.1).
//
// The private dataset is x in {0,1}^n; an analyst issues subset queries
// q subset of [n] and receives a_q ~ sum_{i in q} x_i with per-query error
// at most alpha (depending on the noise model). Reconstruction attacks
// (attacks.h) talk to these oracles only through Answer().

#ifndef PSO_RECON_ORACLE_H_
#define PSO_RECON_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace pso::recon {

/// A subset query: indicator vector over [n].
using SubsetQuery = std::vector<uint8_t>;

/// Answers noisy subset-sum queries about a fixed secret bit vector.
class SubsetSumOracle {
 public:
  /// Takes ownership of the secret `bits`.
  explicit SubsetSumOracle(std::vector<uint8_t> bits);
  virtual ~SubsetSumOracle() = default;

  size_t n() const { return bits_.size(); }

  /// Answers one query (with this oracle's noise model).
  double Answer(const SubsetQuery& query);

 protected:
  /// Noise model hook: receives the query and its exact sum, returns the
  /// released value.
  virtual double Perturb(const SubsetQuery& query, double exact,
                         Rng& rng) = 0;

  /// RNG available to noise models (seeded by subclass constructors).
  Rng& rng() { return rng_; }

 private:
  std::vector<uint8_t> bits_;
  Rng rng_{0};
};

/// Exact answers (alpha = 0): blatant non-privacy baseline.
class ExactOracle final : public SubsetSumOracle {
 public:
  explicit ExactOracle(std::vector<uint8_t> bits);

 protected:
  double Perturb(const SubsetQuery&, double exact, Rng&) override {
    return exact;
  }
};

/// Adds independent uniform noise in [-alpha, alpha]: a mechanism with
/// hard error bound alpha, the regime of Theorem 1.1.
class BoundedNoiseOracle final : public SubsetSumOracle {
 public:
  BoundedNoiseOracle(std::vector<uint8_t> bits, double alpha, uint64_t seed);

 protected:
  double Perturb(const SubsetQuery&, double exact, Rng& rng) override;

 private:
  double alpha_;
};

/// Rounds the exact answer to the nearest multiple of `granularity`
/// (error <= granularity/2): the "cell suppression / rounding" style of
/// disclosure limitation.
class RoundingOracle final : public SubsetSumOracle {
 public:
  RoundingOracle(std::vector<uint8_t> bits, double granularity);

 protected:
  double Perturb(const SubsetQuery&, double exact, Rng&) override;

 private:
  double granularity_;
};

/// Laplace(1/eps) noise per query: the differentially private oracle. Its
/// error grows with the number of queries at fixed total budget; the
/// benches use it to show DP defeats reconstruction at matched accuracy.
class LaplaceOracle final : public SubsetSumOracle {
 public:
  LaplaceOracle(std::vector<uint8_t> bits, double eps_per_query,
                uint64_t seed);

 protected:
  double Perturb(const SubsetQuery&, double exact, Rng& rng) override;

 private:
  double eps_;
};

/// The information-theoretic defense matching Theorem 1.1(i)'s constant:
/// answers every query EXACTLY but about a decoy dataset z at Hamming
/// distance `flips` from x. Per-query error is at most `flips`, yet no
/// attacker can recover more than the n - flips agreed positions — random
/// per-query noise cannot achieve this (an exhaustive attacker averages
/// it away; see bench E1).
class DecoyOracle final : public SubsetSumOracle {
 public:
  /// Flips `flips` uniformly random positions of `bits` to form the decoy.
  DecoyOracle(std::vector<uint8_t> bits, size_t flips, uint64_t seed);


 protected:
  double Perturb(const SubsetQuery& query, double exact, Rng&) override;

 private:
  std::vector<uint8_t> decoy_;
};

/// Draws a uniformly random secret x in {0,1}^n.
std::vector<uint8_t> RandomBits(size_t n, Rng& rng);

/// Fraction of positions where `estimate` agrees with `truth` (both must
/// have equal length). 1.0 = perfect reconstruction. The complementary
/// error is what "blatant non-privacy" bounds at 5% (Section 1).
double FractionAgree(const std::vector<uint8_t>& estimate,
                     const std::vector<uint8_t>& truth);

}  // namespace pso::recon

#endif  // PSO_RECON_ORACLE_H_
