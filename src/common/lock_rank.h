// Global lock-rank table: a total order over every pso::Mutex in the
// tree that makes "can this ever deadlock?" a local question.
//
// Rule: a thread may only acquire a mutex of STRICTLY LOWER rank than
// every mutex it already holds. Outermost locks carry the highest rank
// (kBudget), leaf locks the lowest (kParallel). The budget ledger
// outranks every observability lock: code holding it may log or bump a
// metrics counter, never the reverse, so the chain budget > log >
// metrics is legal in exactly one direction. Two mutexes of the SAME
// rank must never nest.
//
// The order is enforced three ways:
//   1. Statically: PSO_LOCK_ORDER(rank) chains every ranked mutex into a
//      global acquired_before/acquired_after order that clang's
//      -Wthread-safety-beta analysis checks at compile time (the
//      negcompile gate keeps the diagnostic alive).
//   2. Dynamically: with -DPSO_DEADLOCK_CHECK=ON, pso::Mutex verifies
//      each acquisition against a per-thread held-lock stack and a
//      global observed-pair graph (common/mutex.h).
//   3. Lint: tools/pso_lint.py rule `mutex-rank` rejects any pso::Mutex
//      declaration in src/ that does not name a rank.
//
// Adding a rank: insert the enumerator at its level, extend
// LockRankName(), and add the boundary-sentinel pair below, keeping the
// chain in strictly descending rank order.

#ifndef PSO_COMMON_LOCK_RANK_H_
#define PSO_COMMON_LOCK_RANK_H_

#include <cstdint>

#include "common/thread_annotations.h"

namespace pso {

/// Rank of a mutex in the global acquisition order. Higher rank =
/// acquired earlier (outermost). A thread holding a mutex of rank r may
/// only acquire mutexes of rank strictly less than r.
enum class LockRank : int8_t {
  kUnranked = -1,  ///< Default-constructed Mutex (tests, scratch locks).
  kParallel = 0,   ///< ThreadPool / TaskGroup / ParallelFor state. Leaf.
  kMetrics = 1,    ///< metrics::Registry.
  kTrace = 2,      ///< trace::Collector.
  kLog = 3,        ///< log sink core.
  kBudget = 4,     ///< dp::BudgetLedger. Outermost.
};

/// Human-readable rank name for verifier witnesses and docs.
constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked: return "unranked";
    case LockRank::kParallel: return "parallel";
    case LockRank::kMetrics: return "metrics";
    case LockRank::kTrace: return "trace";
    case LockRank::kLog: return "log";
    case LockRank::kBudget: return "budget";
  }
  return "invalid";
}

namespace lock_order {

/// Zero-size sentinel capability used only inside thread-safety
/// attributes. Never locked at runtime; exists so clang can thread every
/// ranked mutex into one global acquired-before chain.
class PSO_CAPABILITY("mutex") LockRankBoundary {};

// One above/below sentinel pair per rank, chained in acquisition order
// (descending rank). A mutex of rank r sits between above_<r> and
// below_<r>, so any rank-r mutex is transitively acquired_before every
// mutex of rank < r — across modules that never include each other.
inline LockRankBoundary above_kBudget;
inline LockRankBoundary below_kBudget PSO_ACQUIRED_AFTER(above_kBudget);
inline LockRankBoundary above_kLog PSO_ACQUIRED_AFTER(below_kBudget);
inline LockRankBoundary below_kLog PSO_ACQUIRED_AFTER(above_kLog);
inline LockRankBoundary above_kTrace PSO_ACQUIRED_AFTER(below_kLog);
inline LockRankBoundary below_kTrace PSO_ACQUIRED_AFTER(above_kTrace);
inline LockRankBoundary above_kMetrics PSO_ACQUIRED_AFTER(below_kTrace);
inline LockRankBoundary below_kMetrics PSO_ACQUIRED_AFTER(above_kMetrics);
inline LockRankBoundary above_kParallel PSO_ACQUIRED_AFTER(below_kMetrics);
inline LockRankBoundary below_kParallel PSO_ACQUIRED_AFTER(above_kParallel);

}  // namespace lock_order

}  // namespace pso

/// Declares a mutex's position in the global lock order. Attach to the
/// declaration, before the initializer:
///
///   mutable Mutex mu_ PSO_LOCK_ORDER(kMetrics){LockRank::kMetrics,
///                                              "metrics.registry"};
///
/// The token must be a LockRank enumerator name (kBudget .. kParallel).
#define PSO_LOCK_ORDER(rank_token)                              \
  PSO_ACQUIRED_AFTER(::pso::lock_order::above_##rank_token)     \
  PSO_ACQUIRED_BEFORE(::pso::lock_order::below_##rank_token)

#endif  // PSO_COMMON_LOCK_RANK_H_
