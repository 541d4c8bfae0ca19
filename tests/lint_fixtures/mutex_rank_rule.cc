// Fixture for the `mutex-rank` rule: every pso::Mutex declared in src/
// must name its LockRank (common/lock_rank.h) so the static chain, the
// runtime verifier, and human readers all see the same order.
// pso-lint-fixture-path: src/service/mutex_rank_fixture.cc

#include "common/lock_rank.h"
#include "common/mutex.h"

namespace pso {

class RankedMember {
  Mutex mu_ PSO_LOCK_ORDER(kLog){LockRank::kLog, "fixture.ranked"};
};

class RankedMultiLine {
  // The initializer may wrap lines; the rule scans the declaration up to
  // its terminating semicolon.
  mutable Mutex mu_ PSO_LOCK_ORDER(kBudget){LockRank::kBudget,
                                            "fixture.multi_line"};
};

class UnrankedMember {
  Mutex mu_;  // lint-expect: mutex-rank
};

class ExplicitlyUnranked {
  // Naming kUnranked is not an escape hatch in src/.
  Mutex mu_{LockRank::kUnranked, "fixture.unranked"};  // lint-expect: mutex-rank
};

pso::Mutex qualified_global;  // lint-expect: mutex-rank

// References and pointers are uses, not declarations.
Mutex& PassThrough(Mutex& mu) { return mu; }
void Inspect(const Mutex* mu);

class SuppressedScratch {
  Mutex scratch_;  // pso-lint: allow(mutex-rank)
};

}  // namespace pso
