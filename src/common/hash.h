// Pairwise-independent hash families.
//
// The paper's negligible-weight isolating predicates are built "by applying
// the Leftover Hash Lemma" (Section 2.2) — i.e., from a universal hash
// family applied to records. This module provides the family: random
// multiply-add hashing over a 61-bit Mersenne-prime field, which is strongly
// 2-universal, plus a mixer for reducing structured records to 64-bit keys.

#ifndef PSO_COMMON_HASH_H_
#define PSO_COMMON_HASH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pso {

class Rng;

/// Mixes a 64-bit value (SplitMix64 finalizer); good avalanche behaviour.
uint64_t MixUint64(uint64_t x);

/// Combines a hash with another value (boost::hash_combine style, 64-bit).
uint64_t HashCombine(uint64_t seed, uint64_t value);

/// FNV-1a over a byte string.
uint64_t HashBytes(const void* data, size_t len);

/// FNV-1a over a std::string.
uint64_t HashString(const std::string& s);

/// A random member of the strongly 2-universal family
///   h_{a,b}(x) = ((a*x + b) mod p) mod m,   p = 2^61 - 1.
///
/// For any x != y, Pr over (a,b) of a collision is <= 1/m + o(1/m). Such a
/// function restricted to range m = 1/w produces a predicate of weight ~w
/// on any distribution with enough min-entropy (the Leftover Hash Lemma
/// argument the paper invokes).
class UniversalHash {
 public:
  /// Draws random coefficients (a in [1, p), b in [0, p)) from `rng`.
  UniversalHash(Rng& rng, uint64_t range);

  /// Evaluates h(x) in [0, range).
  uint64_t Eval(uint64_t x) const;

  uint64_t range() const { return range_; }
  uint64_t a() const { return a_; }
  uint64_t b() const { return b_; }

 private:
  uint64_t a_;
  uint64_t b_;
  uint64_t range_;
};

}  // namespace pso

#endif  // PSO_COMMON_HASH_H_
