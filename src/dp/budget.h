// Per-client differential-privacy budget accounting for a live query
// service.
//
// The accountant (accountant.h) reasons about one analyst's composed
// guarantee after the fact; the ledger enforces a budget *online*: every
// answered query charges its epsilon against the issuing client's
// remaining budget under basic composition, and a query that would push
// the client past the cap is rejected with kResourceExhausted before any
// answer is computed. This is the mechanism side of the Fundamental Law —
// "overly accurate answers to too many questions" is exactly what the cap
// refuses to hand out.
//
// Thread safety: all operations are safe to call concurrently (the query
// service answers batches on a worker pool). Charges to one client are
// serialized by the ledger mutex, so a client racing itself over the last
// epsilon sees exactly one success and one rejection — in either order,
// but never two of either — which the service tests pin under TSan.

#ifndef PSO_DP_BUDGET_H_
#define PSO_DP_BUDGET_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace pso::dp {

/// One client's ledger entry at a point in time.
struct BudgetClientState {
  double spent_eps = 0.0;   ///< Epsilon consumed by answered queries.
  uint64_t answered = 0;    ///< Queries charged successfully.
  uint64_t rejected = 0;    ///< Queries refused with kResourceExhausted.
};

/// Thread-safe per-client epsilon ledger under basic composition.
class BudgetLedger {
 public:
  /// `budget_eps` caps each client's cumulative epsilon; <= 0 means
  /// unlimited (every charge succeeds — the exact-answer service mode).
  explicit BudgetLedger(double budget_eps);

  /// Atomically charges `eps` (>= 0) to `client`. On success returns the
  /// client's query ordinal (0-based count of previously answered
  /// queries), which the service uses as the per-client noise-stream
  /// counter. When the charge would exceed the budget, records a
  /// rejection and returns kResourceExhausted naming the client and its
  /// remaining budget.
  [[nodiscard]] Result<uint64_t> Charge(uint64_t client, double eps)
      PSO_EXCLUDES(mu_);

  /// The cap every client is held to (<= 0 = unlimited).
  double budget_eps() const { return budget_eps_; }

  /// Snapshot of one client's state (zeros for a never-seen client).
  BudgetClientState ClientState(uint64_t client) const PSO_EXCLUDES(mu_);

  /// Number of distinct clients that have issued at least one charge.
  size_t NumClients() const PSO_EXCLUDES(mu_);

  /// Totals across all clients.
  uint64_t TotalAnswered() const PSO_EXCLUDES(mu_);
  uint64_t TotalRejected() const PSO_EXCLUDES(mu_);

  /// Client ids with at least one rejected charge, ascending (std::map
  /// iteration: deterministic reporting order).
  std::vector<uint64_t> RejectedClients() const PSO_EXCLUDES(mu_);

 private:
  const double budget_eps_;
  mutable Mutex mu_;
  std::map<uint64_t, BudgetClientState> clients_ PSO_GUARDED_BY(mu_);
};

}  // namespace pso::dp

#endif  // PSO_DP_BUDGET_H_
