// Table-to-microdata reconstruction (Garfinkel–Abowd–Martindale pipeline).
//
// Each block's published tables become count constraints over the person
// domain; the CountCsp solver enumerates consistent person multisets. A
// unique solution reconstructs the block exactly; with noisy (DP) tables
// the constraints widen and the solution space blows up, destroying
// accuracy — the two regimes of the E9 bench.

#ifndef PSO_CENSUS_RECONSTRUCT_H_
#define PSO_CENSUS_RECONSTRUCT_H_

#include <vector>

#include "census/tabulator.h"
#include "solver/csp.h"

namespace pso {
class ThreadPool;
}

namespace pso::census {

/// Outcome of reconstructing one block.
struct BlockReconstruction {
  size_t block_id = 0;
  size_t block_size = 0;
  size_t solutions_found = 0;  ///< Capped at the enumeration limit.
  bool unique = false;         ///< Exactly one solution, search exhaustive.
  bool exhausted = true;       ///< Search completed within node budget.
  /// A representative solution (the first found), decoded to records.
  std::vector<Record> reconstructed;
  /// How many reconstructed records exactly match ground truth, as a
  /// multiset intersection (order-free).
  size_t exact_matches = 0;
  /// True iff the ground-truth multiset appears among the enumerated
  /// solutions (always true when the search was exhaustive and the tables
  /// were exact).
  bool truth_found = false;
};

/// Options for reconstruction.
struct ReconstructOptions {
  size_t max_solutions = 64;    ///< Stop after this many solutions.
  size_t max_nodes = 2000000;   ///< Search budget per block.
  /// Worker pool for ReconstructPopulation (null = serial). Blocks are
  /// independent CSPs and carry no randomness, so results are identical
  /// at any thread count.
  ThreadPool* pool = nullptr;
};

/// The block's tables as count constraints over the person domain, one
/// variable per person of the published total.
CountCsp EncodeBlockCsp(const BlockTables& tables);

/// True when `records` is a solution of EncodeBlockCsp(tables): one
/// record per person, with every table count in its window.
bool ConsistentWithTables(const BlockTables& tables,
                          const std::vector<Record>& records);

/// Builds the CSP from `tables` and enumerates solutions. `truth` is used
/// only for scoring (exact_matches); pass the block's own records.
BlockReconstruction ReconstructBlock(const BlockTables& tables,
                                     const Dataset& truth,
                                     const ReconstructOptions& options = {});

/// Aggregate results over a population.
struct ReconstructionReport {
  size_t blocks = 0;
  size_t blocks_unique = 0;
  size_t blocks_exhausted = 0;
  size_t persons = 0;
  size_t persons_exactly_reconstructed = 0;

  double block_unique_fraction() const;
  double person_exact_fraction() const;
};

/// Reconstructs every block of `population` from `tables` (parallel
/// vectors) and aggregates.
ReconstructionReport ReconstructPopulation(
    const Population& population, const std::vector<BlockTables>& tables,
    const ReconstructOptions& options,
    std::vector<BlockReconstruction>* per_block = nullptr);

}  // namespace pso::census

#endif  // PSO_CENSUS_RECONSTRUCT_H_
