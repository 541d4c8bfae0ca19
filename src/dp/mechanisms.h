// Differentially private primitives (Definition 1.2, Theorem 1.3).
//
// Each mechanism here satisfies eps-DP for the stated sensitivity; the
// accountant (accountant.h) composes privacy budgets and audit.h verifies
// the guarantees empirically.

#ifndef PSO_DP_MECHANISMS_H_
#define PSO_DP_MECHANISMS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "predicate/predicate.h"

namespace pso::dp {

/// The Laplace mechanism for a counting query (Theorem 1.3): returns
/// sum_i q(x_i) + Lap(1/eps). Counting queries have sensitivity 1, so the
/// output is eps-differentially private.
double LaplaceCount(const Dataset& data, const Predicate& query, double eps,
                    Rng& rng);

/// Discrete (two-sided geometric) mechanism for an integer count:
/// count + Geom(alpha = e^{-eps}). eps-DP for sensitivity-1 counts and
/// integer-valued, which the census tabulator prefers.
int64_t GeometricCount(const Dataset& data, const Predicate& query,
                       double eps, Rng& rng);

/// Adds two-sided geometric noise with parameter alpha = e^{-eps} to an
/// integer value of sensitivity 1.
int64_t GeometricValue(int64_t value, double eps, Rng& rng);

/// eps-DP noisy histogram of attribute `attr`: one geometric-noised count
/// per domain value. A record affects exactly one bucket, so by parallel
/// composition the whole histogram is eps-DP.
std::vector<int64_t> NoisyHistogram(const Dataset& data, size_t attr,
                                    double eps, Rng& rng);
}  // namespace pso::dp

#endif  // PSO_DP_MECHANISMS_H_
