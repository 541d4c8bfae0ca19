#include "common/hash.h"

#include "common/check.h"
#include "common/rng.h"

namespace pso {

namespace {

constexpr uint64_t kMersenne61 = (1ULL << 61) - 1;

// (x * y) mod (2^61 - 1) using 128-bit intermediate.
uint64_t MulMod61(uint64_t x, uint64_t y) {
  unsigned __int128 z = static_cast<unsigned __int128>(x) * y;
  uint64_t lo = static_cast<uint64_t>(z & kMersenne61);
  uint64_t hi = static_cast<uint64_t>(z >> 61);
  uint64_t r = lo + hi;
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

}  // namespace

uint64_t MixUint64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (MixUint64(value) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                 (seed >> 2));
}

uint64_t HashBytes(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashString(const std::string& s) {
  return HashBytes(s.data(), s.size());
}

UniversalHash::UniversalHash(Rng& rng, uint64_t range) : range_(range) {
  PSO_CHECK(range > 0);
  a_ = 1 + rng.UniformUint64(kMersenne61 - 1);
  b_ = rng.UniformUint64(kMersenne61);
}

uint64_t UniversalHash::Eval(uint64_t x) const {
  // Reduce x into the field first (loses nothing for x < 2^61; for larger x
  // we pre-mix, which keeps the family's collision behaviour in practice).
  uint64_t xr = x % kMersenne61;
  uint64_t v = MulMod61(a_, xr);
  v += b_;
  if (v >= kMersenne61) v -= kMersenne61;
  return v % range_;
}

}  // namespace pso
