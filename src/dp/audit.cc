#include "dp/audit.h"

#include <cmath>
#include <map>

#include "common/check.h"
#include "common/metrics.h"

namespace pso::dp {

AuditResult AuditPrivacyLoss(const BucketizedMechanism& mechanism,
                             size_t trials, Rng& rng, size_t min_support) {
  PSO_CHECK(trials > 0);
  metrics::GetCounter("dp.audit_trials").Add(2 * trials);  // both inputs
  PSO_SPAN("dp.audit");
  std::map<int64_t, std::pair<size_t, size_t>> histogram;
  for (size_t t = 0; t < trials; ++t) {
    ++histogram[mechanism(0, rng)].first;
    ++histogram[mechanism(1, rng)].second;
  }

  AuditResult out;
  out.trials_per_input = trials;
  double n = static_cast<double>(trials);
  for (const auto& [bucket, counts] : histogram) {
    if (counts.first < min_support || counts.second < min_support) continue;
    double p = static_cast<double>(counts.first) / n;
    double q = static_cast<double>(counts.second) / n;
    double loss = std::fabs(std::log(p / q));
    if (loss > out.empirical_eps) out.empirical_eps = loss;
    ++out.buckets_compared;
  }
  return out;
}

}  // namespace pso::dp
