// The exponential mechanism and DP selection/quantile estimation.
//
// The paper notes that "differentially private computations were developed
// for a large variety of tasks, including the computation of statistical
// estimates" (Section 1.1). This module provides the selection workhorse
// behind many of them: McSherry–Talwar's exponential mechanism, plus the
// derived DP median/quantile used by the census tabulator's DP mode.

#ifndef PSO_DP_EXPONENTIAL_H_
#define PSO_DP_EXPONENTIAL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace pso::dp {

/// Samples an index from `scores` with probability proportional to
/// exp(eps * score / (2 * sensitivity)). eps-DP when each score's
/// sensitivity to one record change is at most `sensitivity`.
/// Numerically stable (max-shifted). Requires non-empty scores.
size_t ExponentialMechanism(const std::vector<double>& scores, double eps,
                            double sensitivity, Rng& rng);

/// eps-DP q-quantile of attribute `attr` over its domain, via the
/// exponential mechanism with the standard utility
///   u(v) = -| #{i : x_i[attr] < v} - q * n |
/// (sensitivity 1). Returns a domain value.
int64_t DpQuantile(const Dataset& data, size_t attr, double q, double eps,
                   Rng& rng);

/// eps-DP median (DpQuantile at q = 0.5).
int64_t DpMedian(const Dataset& data, size_t attr, double eps, Rng& rng);

}  // namespace pso::dp

#endif  // PSO_DP_EXPONENTIAL_H_
