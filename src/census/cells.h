// Which person values count in each published table cell.
//
// Both census encoders — the CSP reconstruction (reconstruct.h) and the
// SAT encoding (sat_reconstruct.h) — turn a cell "c persons match P" into
// a constraint over the person domain. The predicates P depend only on
// the cell, never on the block, so their masks over the kPersonDomain
// person values (indexed by EncodePerson) are computed once per process,
// in one pass over the domain, and shared by every block and encoder:
// EncodeBlockCsp's constraints point at these masks, so encoding a block
// copies none of them.

#ifndef PSO_CENSUS_CELLS_H_
#define PSO_CENSUS_CELLS_H_

#include <cstdint>
#include <vector>

#include "census/tabulator.h"
#include "common/bit_vector.h"

namespace pso::census {

/// One kPersonDomain-bit mask per table cell. The count families are
/// indexed exactly like the same-named BlockTables vectors, so cell i of
/// a family is `tables.<family>[i]` persons matching `<family>[i]`.
struct CellMasks {
  /// Persons aged at most `m`, for any m: empty below 0 and every person
  /// from kMaxAge up.
  const BitVector& AgeAtMost(int64_t m) const;
  /// Persons aged at least `m`, for any m: every person up to 0 and
  /// empty above kMaxAge.
  const BitVector& AgeAtLeast(int64_t m) const;

  std::vector<BitVector> by_age;
  std::vector<BitVector> by_sex_age_bucket;
  std::vector<BitVector> by_race;
  std::vector<BitVector> by_hispanic;
  std::vector<BitVector> by_race_sex_age_bucket;
  std::vector<BitVector> by_hispanic_sex_age_bucket;
  /// age_at_most[m + 1] is AgeAtMost(m) for m in [-1, kMaxAge].
  std::vector<BitVector> age_at_most;
  /// age_at_least[m] is AgeAtLeast(m) for m in [0, kMaxAge + 1].
  std::vector<BitVector> age_at_least;
};

/// The process-wide cell table, built on first use (thread-safe). It
/// lives until the process exits, so a CountCsp may borrow its masks.
const CellMasks& CensusCells();

}  // namespace pso::census

#endif  // PSO_CENSUS_CELLS_H_
