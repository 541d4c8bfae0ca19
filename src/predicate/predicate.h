// Predicates p : X -> {0,1} over records, the objects a singling-out
// attacker produces (Definition 2.1 of the paper).
//
// A predicate must be a function of the record *values* only — isolation by
// position ("the first record") is ruled out by construction since Eval sees
// a Record, not an index.

#ifndef PSO_PREDICATE_PREDICATE_H_
#define PSO_PREDICATE_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "data/distribution.h"
#include "data/schema.h"

namespace pso {

/// A boolean function of a record.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Evaluates the predicate on one record.
  virtual bool Eval(const Record& record) const = 0;

  /// Human-readable rendering (for reports and debugging).
  virtual std::string Description() const = 0;

  /// Schema attribute indices this predicate reads; empty means "possibly
  /// all" (e.g. hash predicates read the whole record).
  virtual std::vector<size_t> AttributesTouched() const { return {}; }

  /// Exact weight w_D(p) = Pr_{x~D}[p(x)=1] under a product distribution,
  /// when analytically computable; std::nullopt otherwise (PsoGame then
  /// bounds the weight over a Monte-Carlo pool, see pso/game.h).
  virtual std::optional<double> ExactWeight(
      const ProductDistribution& dist) const {
    (void)dist;
    return std::nullopt;
  }
};

/// Shared-ownership handle to an immutable predicate.
using PredicateRef = std::shared_ptr<const Predicate>;

/// Constant predicates.
PredicateRef MakeTrue();
PredicateRef MakeFalse();

/// p(x) = 1 iff x[attr] == value.
PredicateRef MakeAttributeEquals(size_t attr, int64_t value,
                                 std::string attr_name = "");

/// p(x) = 1 iff x[attr] is in `values`.
PredicateRef MakeAttributeIn(size_t attr, std::vector<int64_t> values,
                             std::string attr_name = "");

/// p(x) = 1 iff lo <= x[attr] <= hi.
PredicateRef MakeAttributeRange(size_t attr, int64_t lo, int64_t hi,
                                std::string attr_name = "");

/// Conjunction of `terms` (empty conjunction is TRUE).
PredicateRef MakeAnd(std::vector<PredicateRef> terms);

/// Disjunction of `terms` (empty disjunction is FALSE).
PredicateRef MakeOr(std::vector<PredicateRef> terms);

/// Negation.
PredicateRef MakeNot(PredicateRef inner);

/// p(x) = 1 iff x == target exactly (every attribute).
PredicateRef MakeRecordEquals(const Schema& schema, Record target);

/// Leftover-Hash-Lemma-style predicate of design weight ~1/range:
/// p(x) = 1 iff h(key(x)) == bucket, where h is a random member of a
/// strongly universal family and key packs the record (or the selected
/// attributes) into 64 bits.
///
/// Under any distribution whose min-entropy (restricted to the selected
/// attributes) is well above log2(range), the realized weight concentrates
/// near 1/range — this is the construction the paper uses both for the
/// trivial attacker and inside the Theorem 2.10 attack.
///
/// If `attrs` is empty the whole record is hashed.
PredicateRef MakeHashPredicate(const Schema& schema, const UniversalHash& h,
                               uint64_t bucket = 0,
                               std::vector<size_t> attrs = {});

/// Interval variant used by the adaptive composition attack (Theorem 2.8):
/// p(x) = 1 iff lo <= h(key(x)) < hi. Design weight (hi - lo) / h.range();
/// halving [lo, hi) halves the weight, which is how ~log n count queries
/// binary-search their way down to an isolating, negligible-weight
/// predicate.
PredicateRef MakeHashIntervalPredicate(const Schema& schema,
                                       const UniversalHash& h, uint64_t lo,
                                       uint64_t hi);

/// --- Dataset-level helpers (Definition 2.1) ---

/// Number of records in `dataset` satisfying `pred`.
size_t CountMatches(const Predicate& pred, const Dataset& dataset);

/// True iff `pred` isolates in `dataset`: exactly one matching record.
bool Isolates(const Predicate& pred, const Dataset& dataset);

}  // namespace pso

#endif  // PSO_PREDICATE_PREDICATE_H_
