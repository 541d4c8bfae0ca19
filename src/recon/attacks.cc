#include "recon/attacks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "solver/lp.h"

namespace pso::recon {

namespace {

// Builds `count` random subset queries (each index in w.p. 1/2) and
// answers them, returning the (query, answer) matrix.
struct QuerySet {
  std::vector<SubsetQuery> queries;
  std::vector<double> answers;
};

QuerySet DrawRandomQueries(SubsetSumOracle& oracle, size_t count, Rng& rng) {
  QuerySet qs;
  qs.queries.reserve(count);
  qs.answers.reserve(count);
  for (size_t j = 0; j < count; ++j) {
    SubsetQuery q(oracle.n());
    for (auto& bit : q) bit = rng.Bernoulli(0.5) ? 1 : 0;
    qs.answers.push_back(oracle.Answer(q));
    qs.queries.push_back(std::move(q));
  }
  return qs;
}

// The shape both recorded-transcript decoders require: one answer per
// query, every query an indicator vector of length n.
Status CheckTranscriptShape(size_t n, const std::vector<SubsetQuery>& queries,
                            const std::vector<double>& answers) {
  if (answers.size() != queries.size()) {
    return Status::InvalidArgument(
        "transcript shape mismatch: queries != answers");
  }
  for (const SubsetQuery& q : queries) {
    if (q.size() != n) {
      return Status::InvalidArgument("transcript query length != n");
    }
  }
  return Status::Ok();
}

std::vector<uint8_t> RoundAtHalf(const std::vector<double>& x) {
  std::vector<uint8_t> bits(x.size());
  for (size_t i = 0; i < x.size(); ++i) bits[i] = x[i] >= 0.5 ? 1 : 0;
  return bits;
}

}  // namespace

Reconstruction ExhaustiveReconstruct(SubsetSumOracle& oracle, double alpha,
                                     ThreadPool* pool) {
  const size_t n = oracle.n();
  // Each +1 of n doubles the 2^n queries and the answer table (128 MiB
  // at n = 24). Measured in Release on 4 threads: with answers within
  // alpha, pass 1 below took 0.15 s at n = 20 and about 2 s at n = 24
  // (psoctl --alpha 2); when no candidate is consistent, pass 2 took
  // 0.5 s at n = 16 (Laplace noise, alpha 0.5), growing about 8x per +2
  // of n, so about half an hour at n = 24.
  PSO_CHECK_MSG(n <= 24, "exhaustive attack is exponential; keep n <= 24");
  metrics::GetCounter("recon.exhaustive_decodes").Add(1);
  PSO_SPAN("recon.exhaustive_decode");

  // Ask all 2^n subset queries (serial: the oracle is stateful).
  const uint64_t num_masks = 1ULL << n;
  std::vector<double> answers(num_masks);
  SubsetQuery q(n);
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
  //
  // Pass 1 gives up on a candidate as soon as its violation exceeds
  // alpha, so only consistent candidates are checked in full. When the
  // noise stays within alpha the truth is consistent, and the earliest
  // consistent candidate is what the full scan returns too. Otherwise
  // pass 2 rescans, giving up on a candidate only once its violation
  // exceeds both alpha and its chunk's best so far, and returns the
  // earliest candidate of minimum violation.
  struct ChunkBest {
    uint64_t best_candidate = 0;
    double best_violation = std::numeric_limits<double>::infinity();
    bool found_consistent = false;
    uint64_t consistent_candidate = 0;
    double consistent_violation = 0.0;
  };
  const size_t chunk =
      std::max<size_t>(1, DefaultChunkSize(static_cast<size_t>(num_masks)));
  const size_t num_chunks = NumChunks(static_cast<size_t>(num_masks), chunk);
  std::vector<ChunkBest> bests;
  // Masks visited by both passes. Chunking depends only on n, so the
  // total is the same at any thread count.
  metrics::Counter& mask_checks =
      metrics::GetCounter("recon.exhaustive_mask_checks");
  const auto scan = [&](bool prune_at_alpha) {
    bests.assign(num_chunks, ChunkBest{});
    ParallelFor(
        pool, static_cast<size_t>(num_masks),
        [&](size_t begin, size_t end) {
          ChunkBest& best = bests[begin / chunk];
          uint64_t checks = 0;
          for (uint64_t cand = begin; cand < end; ++cand) {
            double worst = 0.0;
            uint64_t mask = 0;
            for (; mask < num_masks; ++mask) {
              double sum = static_cast<double>(std::popcount(cand & mask));
              double v = std::fabs(sum - answers[mask]);
              if (v > worst) {
                worst = v;
                if (worst > alpha &&
                    (prune_at_alpha || worst >= best.best_violation)) {
                  break;  // hopeless
                }
              }
            }
            checks += mask < num_masks ? mask + 1 : num_masks;
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
          mask_checks.Add(checks);
        },
        chunk);
  };
  scan(/*prune_at_alpha=*/true);
  if (std::none_of(bests.begin(), bests.end(),
                   [](const ChunkBest& b) { return b.found_consistent; })) {
    scan(/*prune_at_alpha=*/false);
  }

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

  Reconstruction out;
  out.estimate.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.estimate[i] = (best_candidate >> i) & 1u;
  }
  out.queries_used = num_masks;
  out.decoder_residual = best_violation;
  return out;
}

Result<Reconstruction> LpReconstruct(SubsetSumOracle& oracle,
                                     size_t num_queries, Rng& rng) {
  QuerySet qs = DrawRandomQueries(oracle, num_queries, rng);
  return LpDecodeRecorded(oracle.n(), qs.queries, qs.answers);
}

Result<Reconstruction> LpDecodeRecorded(size_t n,
                                        const std::vector<SubsetQuery>& queries,
                                        const std::vector<double>& answers) {
  Status shape = CheckTranscriptShape(n, queries, answers);
  if (!shape.ok()) return shape;
  const size_t num_queries = queries.size();
  metrics::GetCounter("recon.lp_decodes").Add(1);
  metrics::GetCounter("recon.queries").Add(num_queries);
  trace::Span decode_span("recon.lp_decode");
  if (decode_span.active()) {
    decode_span.Arg("n", std::to_string(n));
    decode_span.Arg("queries", std::to_string(num_queries));
  }

  LpProblem lp;
  // Residual-splitting L1 fit: minimize sum_j (u_j + v_j) subject to
  //   <q_j, x> + u_j - v_j = a_j,  x in [0,1]^n,  u, v >= 0.
  // u_j / v_j are row-singleton columns, so the simplex crash basis makes
  // every row basic immediately (no artificials), and with each x_i at 1
  // that basis is dual feasible: the dual phase solves the fit.
  std::vector<size_t> x_vars(n);
  for (size_t i = 0; i < n; ++i) x_vars[i] = lp.AddVariable(0.0, 1.0, 0.0);
  for (size_t j = 0; j < num_queries; ++j) {
    size_t u = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    size_t v = lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    std::vector<std::pair<size_t, double>> row;
    for (size_t i = 0; i < n; ++i) {
      if (queries[j][i] != 0) row.emplace_back(x_vars[i], 1.0);
    }
    row.emplace_back(u, 1.0);
    row.emplace_back(v, -1.0);
    lp.AddConstraint(row, Relation::kEqual, answers[j]);
  }

  Result<LpSolution> solved = lp.Solve();
  if (!solved.ok()) return solved.status();

  Reconstruction out;
  std::vector<double> x(solved->values.begin(), solved->values.begin() + n);
  out.estimate = RoundAtHalf(x);
  out.queries_used = num_queries;
  out.decoder_residual = solved->objective;
  return out;
}

Reconstruction LeastSquaresReconstruct(SubsetSumOracle& oracle,
                                       size_t num_queries, Rng& rng,
                                       size_t iterations) {
  QuerySet qs = DrawRandomQueries(oracle, num_queries, rng);
  // Self-drawn queries always have the decoder's shape, so value() holds.
  return LeastSquaresDecodeRecorded(oracle.n(), qs.queries, qs.answers,
                                    iterations)
      .value();
}

Result<Reconstruction> LeastSquaresDecodeRecorded(
    size_t n, const std::vector<SubsetQuery>& queries,
    const std::vector<double>& answers, size_t iterations) {
  Status shape = CheckTranscriptShape(n, queries, answers);
  if (!shape.ok()) return shape;
  const size_t num_queries = queries.size();
  metrics::GetCounter("recon.lsq_decodes").Add(1);
  metrics::GetCounter("recon.queries").Add(num_queries);
  PSO_SPAN("recon.lsq_decode");
  const size_t m = num_queries;

  // The iterates need Q only through G = Q^T Q, b = Q^T a and ||a||^2, so
  // the queries are read once. Query columns are packed into 64-bit
  // words; G_ik counts the queries holding both i and k, an exact
  // integer.
  std::vector<double> gram(n * n);
  std::vector<double> b(n, 0.0);
  double answers_sq = 0.0;
  {
    PSO_SPAN("recon.lsq_gram");
    const size_t words = (m + 63) / 64;
    std::vector<uint64_t> columns(n * words, 0);
    for (size_t j = 0; j < m; ++j) {
      const SubsetQuery& query = queries[j];
      const size_t word = j / 64;
      const unsigned shift = static_cast<unsigned>(j % 64);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t in = query[i] != 0 ? 1 : 0;
        columns[i * words + word] |= in << shift;
        b[i] += in != 0 ? answers[j] : 0.0;
      }
      answers_sq += answers[j] * answers[j];
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t* ci = &columns[i * words];
      for (size_t k = i; k < n; ++k) {
        const uint64_t* ck = &columns[k * words];
        uint64_t both = 0;
        for (size_t w = 0; w < words; ++w) {
          both += std::popcount(ci[w] & ck[w]);
        }
        gram[i * n + k] = gram[k * n + i] = static_cast<double>(both);
      }
    }
  }

  // out = G v. G is symmetric, so adding the scaled rows of G touches
  // it in storage order and each out[i] sums its terms in index order.
  const auto multiply = [&](const std::vector<double>& v,
                            std::vector<double>& out) {
    std::fill(out.begin(), out.end(), 0.0);
    for (size_t k = 0; k < n; ++k) {
      const double vk = v[k];
      const double* row = &gram[k * n];
      for (size_t i = 0; i < n; ++i) out[i] += row[i] * vk;
    }
  };

  // Power iteration for the top eigenvalue of G (sets the step size).
  std::vector<double> v(n, 1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<double> w(n);
  double lambda = 1.0;
  for (int it = 0; it < 12; ++it) {
    multiply(v, w);
    double norm = 0.0;
    for (double wi : w) norm += wi * wi;
    norm = std::sqrt(norm);
    if (norm == 0.0) break;
    lambda = norm;
    for (size_t i = 0; i < n; ++i) v[i] = w[i] / norm;
  }
  double step = 1.0 / lambda;

  // Projected gradient descent on ||Qx - a||^2 / 2 over [0,1]^n: the
  // gradient at x is Gx - b, and every coordinate steps from the same x.
  std::vector<double> x(n, 0.5);
  std::vector<double> gx(n);
  double rss = 0.0;
  for (size_t it = 0; it < iterations; ++it) {
    multiply(x, gx);
    if (it + 1 == iterations) {
      // ||Qx - a||^2 = x^T G x - 2 b^T x + ||a||^2 at the last iterate
      // the gradient was taken at.
      double xgx = 0.0;
      double bx = 0.0;
      for (size_t i = 0; i < n; ++i) {
        xgx += x[i] * gx[i];
        bx += b[i] * x[i];
      }
      rss = std::max(0.0, xgx - 2.0 * bx + answers_sq);
    }
    for (size_t i = 0; i < n; ++i) {
      x[i] -= step * (gx[i] - b[i]);
      if (x[i] < 0.0) x[i] = 0.0;
      if (x[i] > 1.0) x[i] = 1.0;
    }
  }

  Reconstruction out;
  out.estimate = RoundAtHalf(x);
  out.queries_used = num_queries;
  out.decoder_residual = std::sqrt(rss);
  return out;
}

}  // namespace pso::recon
