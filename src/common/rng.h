// Deterministic random number generation for all randomized components.
//
// Every mechanism, attacker, and generator in libpso takes an explicit Rng
// so that experiments are exactly reproducible from a seed. The core
// generator is xoshiro256++ seeded via SplitMix64; sampling routines cover
// the distributions the paper's constructions need (uniform, Bernoulli,
// Laplace, two-sided geometric, exponential, discrete/alias).

#ifndef PSO_COMMON_RNG_H_
#define PSO_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pso {

/// Deterministic pseudo-random generator (xoshiro256++).
///
/// Not cryptographically secure; used for simulation only. Distinct streams
/// for sub-components should be derived with `Fork()`.
class Rng {
 public:
  /// Seeds the generator deterministically from `seed` via SplitMix64.
  explicit Rng(uint64_t seed);

  /// Returns the next 64 uniformly random bits.
  uint64_t NextUint64();

  /// Returns an independent generator derived from this one's stream,
  /// for handing to sub-components without correlating their draws.
  ///
  /// CAUTION: Fork() advances this generator, so the forked stream depends
  /// on how many draws preceded it — inside a trial loop that makes trial
  /// results depend on iteration order. Parallel/deterministic trial loops
  /// must use StreamAt(master_seed, trial_index) instead.
  Rng Fork();

  /// Counter-based stream derivation: returns the generator for logical
  /// stream `index` under `master_seed`. The mapping is pure — trial i
  /// gets the same generator regardless of thread count, execution order,
  /// or any other draws — which is what makes parallel Monte-Carlo loops
  /// bit-for-bit reproducible. Derivation: the master seed is whitened
  /// through SplitMix64, the counter is folded in, and the result is
  /// passed through SplitMix64's finalizer again before seeding
  /// xoshiro256++ (so consecutive indices land in uncorrelated states).
  static Rng StreamAt(uint64_t master_seed, uint64_t index);

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased
  /// (rejection sampling).
  uint64_t UniformUint64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1) with 53 random bits.
  double UniformDouble();

  /// Uniform double in (0, 1] (never returns 0; safe for log()).
  double UniformDoublePositive();

  /// Bernoulli draw: true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Laplace(b) sample: density (1/2b) e^{-|x|/b}. Requires b > 0.
  double Laplace(double scale);

  /// Exponential(rate) sample. Requires rate > 0.
  double Exponential(double rate);

  /// Two-sided geometric sample with parameter alpha in (0,1):
  /// Pr[X = k] proportional to alpha^{|k|}. This is the discrete analogue of
  /// the Laplace distribution used by integer-valued DP mechanisms.
  int64_t TwoSidedGeometric(double alpha);

  /// Samples an index i with probability weights[i] / sum(weights).
  /// Requires a non-empty vector of non-negative weights with positive sum.
  /// O(n) per draw; use DiscreteSampler for repeated draws.
  size_t Discrete(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
};

/// Walker alias-method sampler: O(n) setup, O(1) per draw from a fixed
/// discrete distribution. Used by the data generators, which draw millions
/// of records from the same attribute marginals.
class DiscreteSampler {
 public:
  /// Builds the alias table for `weights` (non-negative, positive sum).
  explicit DiscreteSampler(const std::vector<double>& weights);

  /// Draws an index with probability proportional to its weight.
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> prob_;
  std::vector<size_t> alias_;
};

}  // namespace pso

#endif  // PSO_COMMON_RNG_H_
