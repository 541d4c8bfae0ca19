#include "membership/membership.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"

namespace pso::membership {

std::vector<double> AggregateFrequencies(const Dataset& pool) {
  PSO_CHECK(!pool.empty());
  const size_t d = pool.schema().NumAttributes();
  std::vector<double> freqs(d, 0.0);
  for (const Record& r : pool.records()) {
    for (size_t j = 0; j < d; ++j) {
      PSO_CHECK_MSG(r[j] == 0 || r[j] == 1, "binary attributes required");
      freqs[j] += static_cast<double>(r[j]);
    }
  }
  for (double& f : freqs) f /= static_cast<double>(pool.size());
  return freqs;
}

std::vector<double> DpAggregateFrequencies(const Dataset& pool,
                                           double eps_total, Rng& rng) {
  PSO_CHECK(eps_total > 0.0);
  std::vector<double> freqs = AggregateFrequencies(pool);
  const double m = static_cast<double>(pool.size());
  const double d = static_cast<double>(freqs.size());
  // One record changes each of the d frequencies by at most 1/m: L1
  // sensitivity d/m, so Laplace scale (d/m)/eps_total per coordinate.
  const double scale = d / (m * eps_total);
  for (double& f : freqs) {
    f = std::clamp(f + rng.Laplace(scale), 0.0, 1.0);
  }
  return freqs;
}

double MembershipStatistic(const Record& target,
                           const std::vector<double>& pool_freqs,
                           const std::vector<double>& reference_freqs) {
  PSO_CHECK(target.size() == pool_freqs.size());
  PSO_CHECK(target.size() == reference_freqs.size());
  double t = 0.0;
  for (size_t j = 0; j < target.size(); ++j) {
    double y = static_cast<double>(target[j]);
    t += std::fabs(y - reference_freqs[j]) - std::fabs(y - pool_freqs[j]);
  }
  return t;
}

MembershipResult RunMembershipExperiment(const Universe& universe,
                                         const MembershipOptions& options) {
  PSO_CHECK(options.pool_size >= 2);
  PSO_CHECK(options.trials > 0);

  // Public reference frequencies: the exact marginals of D.
  const size_t d = universe.schema.NumAttributes();
  std::vector<double> reference(d);
  for (size_t j = 0; j < d; ++j) {
    reference[j] = universe.distribution.marginal(j).Probability(1);
  }

  // Trial t writes slots in_stats[t] / out_stats[t] from its own
  // counter-derived stream: the statistic vectors are identical at any
  // thread count.
  metrics::GetCounter("membership.trials").Add(options.trials);
  PSO_SPAN("membership.experiment");
  std::vector<double> in_stats(options.trials);
  std::vector<double> out_stats(options.trials);
  ParallelFor(options.pool, options.trials, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      Rng rng = Rng::StreamAt(options.seed, t);
      Dataset pool =
          universe.distribution.SampleDataset(options.pool_size, rng);
      std::vector<double> released =
          options.eps > 0.0
              ? DpAggregateFrequencies(pool, options.eps, rng)
              : AggregateFrequencies(pool);
      size_t member = static_cast<size_t>(rng.UniformUint64(pool.size()));
      in_stats[t] =
          MembershipStatistic(pool.record(member), released, reference);
      out_stats[t] = MembershipStatistic(universe.distribution.Sample(rng),
                                         released, reference);
    }
  });

  MembershipResult result;
  // AUC by pairwise comparison (exact, O(T^2) is fine at these sizes).
  // Chunked over members with per-chunk partial sums merged in index
  // order: the O(T^2) scan parallelizes without perturbing the result.
  const size_t chunk = DefaultChunkSize(options.trials);
  std::vector<double> win_chunks(NumChunks(options.trials, chunk), 0.0);
  ParallelFor(
      options.pool, options.trials,
      [&](size_t begin, size_t end) {
        double wins = 0.0;
        for (size_t i = begin; i < end; ++i) {
          double a = in_stats[i];
          for (double b : out_stats) {
            if (a > b) {
              wins += 1.0;
            } else if (a == b) {
              wins += 0.5;
            }
          }
        }
        win_chunks[begin / chunk] = wins;
      },
      chunk);
  double wins = 0.0;
  for (double w : win_chunks) wins += w;
  result.auc = wins / (static_cast<double>(in_stats.size()) *
                       static_cast<double>(out_stats.size()));

  // Best-threshold advantage: sweep all observed statistics. Per-chunk
  // maxima merge in index order (max is exact, so this too is
  // thread-count-invariant).
  std::vector<double> thresholds = in_stats;
  thresholds.insert(thresholds.end(), out_stats.begin(), out_stats.end());
  std::sort(thresholds.begin(), thresholds.end());
  const size_t thr_chunk = DefaultChunkSize(thresholds.size());
  std::vector<double> adv_chunks(NumChunks(thresholds.size(), thr_chunk),
                                 -1.0);
  ParallelFor(
      options.pool, thresholds.size(),
      [&](size_t begin, size_t end) {
        double best = -1.0;
        for (size_t i = begin; i < end; ++i) {
          double thr = thresholds[i];
          double tpr = 0.0;
          double fpr = 0.0;
          for (double a : in_stats) tpr += a >= thr ? 1.0 : 0.0;
          for (double b : out_stats) fpr += b >= thr ? 1.0 : 0.0;
          tpr /= static_cast<double>(in_stats.size());
          fpr /= static_cast<double>(out_stats.size());
          best = std::max(best, tpr - fpr);
        }
        adv_chunks[begin / thr_chunk] = best;
      },
      thr_chunk);
  for (double a : adv_chunks) result.advantage = std::max(result.advantage, a);

  double sum_in = 0.0;
  for (double a : in_stats) sum_in += a;
  double sum_out = 0.0;
  for (double b : out_stats) sum_out += b;
  result.mean_in = sum_in / static_cast<double>(in_stats.size());
  result.mean_out = sum_out / static_cast<double>(out_stats.size());
  return result;
}

}  // namespace pso::membership
