// The reference reconstruction decoders (see recon_reference.h).

#include "oracles/recon_reference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"

namespace pso::oracles {

recon::Reconstruction LeastSquaresReference(
    size_t n, const std::vector<recon::SubsetQuery>& queries,
    const std::vector<double>& answers, size_t iterations) {
  const size_t m = queries.size();

  // Power iteration for the top eigenvalue of Q^T Q (sets the step size).
  std::vector<double> v(n, 1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<double> qv(m);
  double lambda = 1.0;
  for (int it = 0; it < 12; ++it) {
    for (size_t j = 0; j < m; ++j) {
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (queries[j][i] != 0) s += v[i];
      }
      qv[j] = s;
    }
    std::vector<double> w(n, 0.0);
    for (size_t j = 0; j < m; ++j) {
      if (qv[j] == 0.0) continue;
      for (size_t i = 0; i < n; ++i) {
        if (queries[j][i] != 0) w[i] += qv[j];
      }
    }
    double norm = 0.0;
    for (double wi : w) norm += wi * wi;
    norm = std::sqrt(norm);
    if (norm == 0.0) break;
    lambda = norm;
    for (size_t i = 0; i < n; ++i) v[i] = w[i] / norm;
  }
  double step = 1.0 / lambda;

  // Projected gradient descent on ||Qx - a||^2 / 2 over [0,1]^n.
  std::vector<double> x(n, 0.5);
  std::vector<double> residual(m);
  for (size_t it = 0; it < iterations; ++it) {
    for (size_t j = 0; j < m; ++j) {
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (queries[j][i] != 0) s += x[i];
      }
      residual[j] = s - answers[j];
    }
    for (size_t i = 0; i < n; ++i) {
      double g = 0.0;
      for (size_t j = 0; j < m; ++j) {
        if (queries[j][i] != 0) g += residual[j];
      }
      x[i] -= step * g;
      if (x[i] < 0.0) x[i] = 0.0;
      if (x[i] > 1.0) x[i] = 1.0;
    }
  }

  double rss = 0.0;
  for (double r : residual) rss += r * r;

  recon::Reconstruction out;
  out.estimate.resize(n);
  for (size_t i = 0; i < n; ++i) out.estimate[i] = x[i] >= 0.5 ? 1 : 0;
  out.queries_used = m;
  out.decoder_residual = std::sqrt(rss);
  return out;
}

recon::Reconstruction ExhaustiveReference(recon::SubsetSumOracle& oracle,
                                          double alpha, ThreadPool* pool) {
  const size_t n = oracle.n();
  PSO_CHECK_MSG(n <= 24, "exhaustive attack is exponential; keep n <= 24");

  // Ask all 2^n subset queries (serial: the oracle is stateful).
  const uint64_t num_masks = 1ULL << n;
  std::vector<double> answers(num_masks);
  recon::SubsetQuery q(n);
  for (uint64_t mask = 0; mask < num_masks; ++mask) {
    for (size_t i = 0; i < n; ++i) q[i] = (mask >> i) & 1u;
    answers[mask] = oracle.Answer(q);
  }

  // Scan candidates; a candidate is consistent if every query answer is
  // within alpha of the candidate's subset sum. The scan over `answers`
  // is read-only, so chunks of the candidate space run in parallel; each
  // chunk reports its first fully consistent candidate (if any) and its
  // earliest minimum-violation candidate, and the chunk winners merge in
  // index order — the same candidate the serial scan returns.
  struct ChunkBest {
    uint64_t best_candidate = 0;
    double best_violation = std::numeric_limits<double>::infinity();
    bool found_consistent = false;
    uint64_t consistent_candidate = 0;
    double consistent_violation = 0.0;
  };
  const size_t chunk =
      std::max<size_t>(1, DefaultChunkSize(static_cast<size_t>(num_masks)));
  std::vector<ChunkBest> bests(NumChunks(static_cast<size_t>(num_masks),
                                         chunk));
  ParallelFor(
      pool, static_cast<size_t>(num_masks),
      [&](size_t begin, size_t end) {
        ChunkBest& best = bests[begin / chunk];
        for (uint64_t cand = begin; cand < end; ++cand) {
          double worst = 0.0;
          for (uint64_t mask = 0; mask < num_masks; ++mask) {
            double sum = static_cast<double>(std::popcount(cand & mask));
            double v = std::fabs(sum - answers[mask]);
            if (v > worst) {
              worst = v;
              if (worst > alpha && worst >= best.best_violation) {
                break;  // hopeless
              }
            }
          }
          if (worst < best.best_violation) {
            best.best_violation = worst;
            best.best_candidate = cand;
            if (worst <= alpha) {
              best.found_consistent = true;
              best.consistent_candidate = cand;
              best.consistent_violation = worst;
              break;  // fully consistent candidate found in this chunk
            }
          }
        }
      },
      chunk);

  uint64_t best_candidate = 0;
  double best_violation = std::numeric_limits<double>::infinity();
  for (const ChunkBest& best : bests) {
    if (best.found_consistent) {
      best_candidate = best.consistent_candidate;
      best_violation = best.consistent_violation;
      break;  // earliest chunk with a consistent candidate wins
    }
    if (best.best_violation < best_violation) {
      best_violation = best.best_violation;
      best_candidate = best.best_candidate;
    }
  }

  recon::Reconstruction out;
  out.estimate.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.estimate[i] = (best_candidate >> i) & 1u;
  }
  out.queries_used = num_masks;
  out.decoder_residual = best_violation;
  return out;
}

}  // namespace pso::oracles
