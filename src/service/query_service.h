// A long-running statistical-query service over a private bit-vector
// dataset — the system side of the Cohen–Nissim "Linear Program
// Reconstruction in Practice" loop.
//
// The service answers subset counting queries (recon::SubsetQuery) about
// a fixed secret x in {0,1}^n. Per-client DP budget accounting runs
// through a dp::BudgetLedger: when `eps_per_query` > 0 every answered
// query charges its epsilon against the issuing client's cap and the
// released value carries Laplace(1/eps) noise; an over-budget client is
// refused with kResourceExhausted before any answer is computed. With
// `eps_per_query` == 0 answers are exact and unmetered — the blatantly
// non-private baseline the reconstruction attack destroys.
//
// Determinism contract (the transcript-replay tests pin this): the noise
// on a client's k-th ANSWERED query is drawn from the counter-based
// stream Rng::StreamAt(client_seed, k), where client_seed is a pure
// function of (noise_seed, client id) and k is the ordinal the budget
// ledger assigned under its mutex. Answers therefore depend only on
// (secret, noise_seed, client id, per-client query order) — never on the
// thread count, connection interleaving, or wall clock — so the same
// load replays bit-identically at any parallelism.
//
// Thread safety: Answer/AnswerBatch are safe to call concurrently for
// any mix of clients; the socket server (server.h) answers batches from
// its connection handlers on a ThreadPool.

#ifndef PSO_SERVICE_QUERY_SERVICE_H_
#define PSO_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "dp/budget.h"
#include "recon/oracle.h"

namespace pso::service {

/// Tuning knobs for one QueryService instance.
struct QueryServiceOptions {
  /// Epsilon charged (and Laplace(1/eps) noise added) per answered
  /// query; 0 = exact answers, no charging.
  double eps_per_query = 0.0;
  /// Per-client cumulative epsilon cap (<= 0 = unlimited). Only charged
  /// when eps_per_query > 0.
  double client_budget_eps = 0.0;
  /// Master seed for the per-client noise streams.
  uint64_t noise_seed = 1;
  /// Upper bound on the queries one wire-level batch may carry; the
  /// socket server groups at most this many pipelined requests per
  /// AnswerBatch call.
  size_t max_batch = 64;
};

/// One answered-or-rejected query as the service released it.
using QueryOutcome = Result<double>;

/// Counting-query service over a secret bit vector.
class QueryService {
 public:
  /// Takes ownership of the secret dataset.
  QueryService(std::vector<uint8_t> secret, const QueryServiceOptions& options);

  size_t n() const { return secret_.size(); }
  const QueryServiceOptions& options() const { return options_; }

  /// Answers one query for `client`: charges the ledger, computes the
  /// subset sum, and (in DP mode) adds Laplace(1/eps) noise from the
  /// client's counter-based stream. kInvalidArgument on a query of the
  /// wrong length; kResourceExhausted when the client is over budget.
  QueryOutcome Answer(uint64_t client, const recon::SubsetQuery& query);

  /// Answers a batch of queries for one client, in order. Each query is
  /// charged individually, so a batch straddling the budget boundary
  /// gets answers up to the cap and kResourceExhausted afterwards.
  std::vector<QueryOutcome> AnswerBatch(
      uint64_t client, const std::vector<recon::SubsetQuery>& queries);

  /// Queries answered / rejected so far (ledger totals; in exact mode
  /// rejections are always 0).
  uint64_t queries_answered() const { return ledger_.TotalAnswered(); }
  uint64_t queries_rejected() const { return ledger_.TotalRejected(); }

  /// The pure per-client noise-stream seed derivation (exposed so tests
  /// can predict released values exactly).
  static uint64_t ClientSeed(uint64_t noise_seed, uint64_t client);

 private:
  const std::vector<uint8_t> secret_;
  const QueryServiceOptions options_;
  dp::BudgetLedger ledger_;
  // Hot-path metric handles, resolved once (GetCounter locks per lookup).
  metrics::Counter& queries_counter_;
  metrics::Counter& rejections_counter_;
  metrics::Histogram& answer_hist_;
  metrics::Histogram& batch_size_hist_;
};

}  // namespace pso::service

#endif  // PSO_SERVICE_QUERY_SERVICE_H_
