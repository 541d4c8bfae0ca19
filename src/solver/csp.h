// Count-constraint CSP solver.
//
// This is the engine behind the census-table reconstruction experiment
// (Section 1's 2010-Decennial narrative, following the Garfinkel–Abowd–
// Martindale pipeline): a block's published tables become constraints
// "exactly c of the persons in this block match condition P", and the
// solver enumerates all person-assignments consistent with every table.
// A unique solution means the block is reconstructed exactly.
//
// Model: `num_vars` interchangeable variables (persons) over one shared
// abstract domain of `domain_size` values (full attribute combinations).
// Every constraint counts, over all variables, the values matching a
// mask (a packed BitVector over the domain), and requires the count to
// land in [lo, hi] ([c, c] for exact tables; widened intervals encode
// noisy/DP tables and medians).
//
// Variables being interchangeable, the solver breaks permutation symmetry
// by enumerating non-decreasing value sequences; solutions are multisets.
//
// A constraint refers to its mask rather than owning it, and the caller
// keeps the mask alive for as long as the CSP. Census blocks borrow the
// process-wide cell masks (census/cells.h), so encoding a block copies
// no mask, and copying or moving a CSP copies only pointers.
//
// The search tracks, per constraint, its deficit (lo minus the matches
// so far) and its room (hi minus them), and counts the constraints at
// each deficit. A child that would overfill some constraint is skipped
// uncounted. Every other child is a search node, and it is feasible
// exactly when its value matches every constraint whose deficit equals
// the number of variables its parent left unassigned. So a child costs a
// read of the constraints its own value matches, not a scan of them all.
// Those per-value rows list only constraints that can prune: not the
// `hi == 0` ones, whose values are never candidates, nor those whose
// window [0, >= num_vars] every assignment meets.
// tests/oracles/csp_reference.h keeps the scan-every-constraint search as
// the differential oracle; solutions and CspStats are identical.

#ifndef PSO_SOLVER_CSP_H_
#define PSO_SOLVER_CSP_H_

#include <cstdint>
#include <vector>

#include "common/bit_vector.h"
#include "common/result.h"

namespace pso {

/// Statistics from a CSP enumeration.
struct CspStats {
  size_t nodes = 0;      ///< Search-tree nodes visited.
  size_t solutions = 0;  ///< Solutions found (capped by the caller).
  bool complete = true;  ///< False if a node/solution cap stopped search.
};

/// Enumerates assignments of interchangeable variables under count
/// constraints (see file comment).
///
/// Malformed input (zero domain, mask arity mismatch, inverted or
/// negative count windows) does not abort: the first violation is
/// recorded and surfaced as an InvalidArgument status by build_status();
/// Enumerate on a poisoned instance reports no solutions with
/// `complete == false`, so untrusted instances hard-fail recoverably
/// instead of crashing the process.
class CountCsp {
 public:
  /// `num_vars` variables over a shared domain of `domain_size` values
  /// (must be positive; zero poisons build_status()).
  CountCsp(size_t num_vars, size_t domain_size);

  size_t num_vars() const { return num_vars_; }
  size_t domain_size() const { return domain_size_; }

  /// OK unless the constructor or a builder call above was handed a
  /// malformed instance; then the first violation, as InvalidArgument.
  const Status& build_status() const { return build_status_; }

  /// Requires: #{ vars assigned value v : match->Test(v) } in [lo, hi].
  /// `*match` must have domain_size bits and 0 <= lo <= hi; violations
  /// poison build_status(). Only the pointer is kept, so `*match` must
  /// outlive the CSP and every copy of it. Census blocks pass the
  /// process-wide cell masks.
  void AddCountConstraint(const BitVector* match, int64_t lo, int64_t hi);

  /// The values no `hi == 0` constraint matches, in increasing order: the
  /// only values a solution can use. Enumerate searches over them, and
  /// the CNF encoding (csp_sat.h) has literals for them alone. When
  /// `blocked` is given, it receives the other values as a bit set.
  std::vector<size_t> Candidates(BitVector* blocked = nullptr) const;

  /// True when `values` has one entry per variable, each in the domain,
  /// and every constraint's count of them lies in its window. False on a
  /// poisoned instance.
  bool IsSolution(const std::vector<size_t>& values) const;

  /// Enumerates solutions (each a non-decreasing vector of value indices,
  /// one per variable). Stops after `max_solutions` solutions or
  /// `max_nodes` search nodes; `stats` reports whether the search was
  /// exhaustive. Adds 1 to the `csp.enumerations` counter and the node
  /// count to `csp.nodes`.
  std::vector<std::vector<size_t>> Enumerate(size_t max_solutions,
                                             size_t max_nodes,
                                             CspStats* stats) const;

  /// One count constraint as added: `lo <= #{matching vars} <= hi`.
  /// `mask` is the caller's mask, borrowed by AddCountConstraint.
  struct Constraint {
    const BitVector* mask = nullptr;
    int64_t lo = 0;
    int64_t hi = 0;

    const BitVector& match() const { return *mask; }
  };

  /// The constraints added so far, in order. A malformed call adds
  /// nothing, and neither does any call after it.
  const std::vector<Constraint>& constraints() const { return constraints_; }

 private:
  size_t num_vars_;
  size_t domain_size_;
  Status build_status_;
  std::vector<Constraint> constraints_;
};

}  // namespace pso

#endif  // PSO_SOLVER_CSP_H_
