#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace pso {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

Rng Rng::StreamAt(uint64_t master_seed, uint64_t index) {
  uint64_t s = master_seed;
  uint64_t whitened = SplitMix64(s);
  // SplitMix64's output function is a strong finalizer designed for
  // counter inputs; whitened + index walks it through distinct counters.
  uint64_t t = whitened + index;
  return Rng(SplitMix64(t));
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  PSO_CHECK(bound > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  PSO_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // full range
  return lo + static_cast<int64_t>(UniformUint64(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDoublePositive() {
  return (static_cast<double>(NextUint64() >> 11) + 1.0) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Laplace(double scale) {
  PSO_CHECK(scale > 0.0);
  // Inverse CDF: u uniform in (-1/2, 1/2], x = -b * sgn(u) * ln(1 - 2|u|).
  double u = UniformDoublePositive() - 0.5;
  double sign = (u >= 0.0) ? 1.0 : -1.0;
  double mag = std::fabs(u);
  // 1 - 2*mag is in [0, 1); guard against log(0).
  double t = 1.0 - 2.0 * mag;
  if (t <= 0.0) t = 0x1.0p-53;
  return -scale * sign * std::log(t);
}

double Rng::Exponential(double rate) {
  PSO_CHECK(rate > 0.0);
  return -std::log(UniformDoublePositive()) / rate;
}

int64_t Rng::TwoSidedGeometric(double alpha) {
  PSO_CHECK(alpha > 0.0 && alpha < 1.0);
  // Sample magnitude from one-sided geometric Pr[K = k] = (1-alpha) alpha^k
  // via inversion, then a symmetric sign; resolve double-counting of 0 by
  // rejecting (sign = -1, k = 0).
  for (;;) {
    double u = UniformDoublePositive();
    int64_t k = static_cast<int64_t>(std::floor(std::log(u) / std::log(alpha)));
    if (k < 0) k = 0;
    bool negative = Bernoulli(0.5);
    if (negative && k == 0) continue;
    return negative ? -k : k;
  }
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  PSO_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    PSO_CHECK(w >= 0.0);
    total += w;
  }
  PSO_CHECK(total > 0.0);
  double u = UniformDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;  // numerical edge
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  PSO_CHECK(k <= n);
  // Partial Fisher–Yates on an index vector.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(UniformUint64(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  const size_t n = weights.size();
  PSO_CHECK(n > 0);
  double total = 0.0;
  for (double w : weights) {
    PSO_CHECK(w >= 0.0);
    total += w;
  }
  PSO_CHECK(total > 0.0);

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;

  std::vector<size_t> small;
  std::vector<size_t> large;
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    size_t s = small.back();
    small.pop_back();
    size_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (size_t i : large) prob_[i] = 1.0;
  for (size_t i : small) prob_[i] = 1.0;
}

size_t DiscreteSampler::Sample(Rng& rng) const {
  size_t i = static_cast<size_t>(rng.UniformUint64(prob_.size()));
  return rng.UniformDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace pso
