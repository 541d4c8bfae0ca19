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
  return LpReconstruct(oracle, num_queries, rng, LpDecodeOptions{});
}

Result<Reconstruction> LpReconstruct(SubsetSumOracle& oracle,
                                     size_t num_queries, Rng& rng,
                                     const LpDecodeOptions& options) {
  QuerySet qs = DrawRandomQueries(oracle, num_queries, rng);
  return LpDecodeRecorded(oracle.n(), qs.queries, qs.answers, options);
}

Result<Reconstruction> LpDecodeRecorded(size_t n,
                                        const std::vector<SubsetQuery>& queries,
                                        const std::vector<double>& answers,
                                        const LpDecodeOptions& options) {
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
  // every row basic immediately (no artificials, no phase 1).
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

  LpSolveOptions solve_options;
  if (options.basis != nullptr) {
    if (!options.basis->empty()) solve_options.warm_start = options.basis;
    solve_options.final_basis = options.basis;
  }
  Result<LpSolution> solved = lp.Solve(solve_options);
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

  Reconstruction out;
  out.estimate = RoundAtHalf(x);
  out.queries_used = num_queries;
  out.decoder_residual = std::sqrt(rss);
  return out;
}

}  // namespace pso::recon
