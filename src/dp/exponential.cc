#include "dp/exponential.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pso::dp {

size_t ExponentialMechanism(const std::vector<double>& scores, double eps,
                            double sensitivity, Rng& rng) {
  PSO_CHECK(!scores.empty());
  PSO_CHECK(eps > 0.0);
  PSO_CHECK(sensitivity > 0.0);
  double best = *std::max_element(scores.begin(), scores.end());
  std::vector<double> weights(scores.size());
  const double scale = eps / (2.0 * sensitivity);
  for (size_t i = 0; i < scores.size(); ++i) {
    weights[i] = std::exp(scale * (scores[i] - best));
  }
  return rng.Discrete(weights);
}

int64_t DpQuantile(const Dataset& data, size_t attr, double q, double eps,
                   Rng& rng) {
  PSO_CHECK(attr < data.schema().NumAttributes());
  PSO_CHECK(q >= 0.0 && q <= 1.0);
  PSO_CHECK(!data.empty());
  const Attribute& a = data.schema().attribute(attr);
  const int64_t lo = a.MinValue();
  const int64_t hi = a.MaxValue();

  // Rank of each domain value: #records strictly below it. Computed by a
  // counting pass so the whole utility vector costs O(n + domain).
  std::vector<int64_t> counts(static_cast<size_t>(hi - lo + 1), 0);
  for (const Record& r : data.records()) {
    ++counts[static_cast<size_t>(r[attr] - lo)];
  }
  const double target = q * static_cast<double>(data.size());
  std::vector<double> scores(counts.size());
  int64_t below = 0;
  for (size_t v = 0; v < counts.size(); ++v) {
    // The rank interval occupied by value v is [below, below + count(v)];
    // utility is the distance from q*n to that interval (0 if inside), so
    // values carrying the quantile get the top score.
    double lo_rank = static_cast<double>(below);
    double hi_rank = static_cast<double>(below + counts[v]);
    if (target < lo_rank) {
      scores[v] = -(lo_rank - target);
    } else if (target > hi_rank) {
      scores[v] = -(target - hi_rank);
    } else {
      scores[v] = 0.0;
    }
    below += counts[v];
  }
  size_t idx = ExponentialMechanism(scores, eps, /*sensitivity=*/1.0, rng);
  return lo + static_cast<int64_t>(idx);
}

int64_t DpMedian(const Dataset& data, size_t attr, double eps, Rng& rng) {
  return DpQuantile(data, attr, 0.5, eps, rng);
}

}  // namespace pso::dp
