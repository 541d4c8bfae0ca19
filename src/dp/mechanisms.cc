#include "dp/mechanisms.h"

#include <cmath>

#include "common/check.h"

namespace pso::dp {

double LaplaceCount(const Dataset& data, const Predicate& query, double eps,
                    Rng& rng) {
  PSO_CHECK(eps > 0.0);
  double count = static_cast<double>(CountMatches(query, data));
  return count + rng.Laplace(1.0 / eps);
}

int64_t GeometricCount(const Dataset& data, const Predicate& query,
                       double eps, Rng& rng) {
  int64_t count = static_cast<int64_t>(CountMatches(query, data));
  return GeometricValue(count, eps, rng);
}

int64_t GeometricValue(int64_t value, double eps, Rng& rng) {
  PSO_CHECK(eps > 0.0);
  return value + rng.TwoSidedGeometric(std::exp(-eps));
}

std::vector<int64_t> NoisyHistogram(const Dataset& data, size_t attr,
                                    double eps, Rng& rng) {
  PSO_CHECK(attr < data.schema().NumAttributes());
  const Attribute& a = data.schema().attribute(attr);
  std::vector<int64_t> counts(static_cast<size_t>(a.DomainSize()), 0);
  for (const Record& r : data.records()) {
    ++counts[static_cast<size_t>(r[attr] - a.MinValue())];
  }
  for (int64_t& c : counts) c = GeometricValue(c, eps, rng);
  return counts;
}

}  // namespace pso::dp
