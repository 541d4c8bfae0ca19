#include "oracles/csp_reference.h"

#include <limits>

namespace pso::oracles {

std::vector<std::vector<size_t>> CspEnumerateReference(const CountCsp& csp,
                                                       size_t max_solutions,
                                                       size_t max_nodes,
                                                       CspStats* stats) {
  CspStats local;
  std::vector<std::vector<size_t>> solutions;
  const auto finish = [&] {
    if (stats != nullptr) *stats = local;
  };
  if (!csp.build_status().ok()) {
    local.complete = false;
    finish();
    return solutions;
  }
  const std::vector<CountCsp::Constraint>& constraints = csp.constraints();
  const size_t num_constraints = constraints.size();
  const size_t num_vars = csp.num_vars();
  const size_t domain_size = csp.domain_size();

  // Candidate filter: a value matching any hi == 0 constraint can never be
  // used.
  BitVector blocked(domain_size);
  for (const CountCsp::Constraint& c : constraints) {
    if (c.hi == 0) blocked |= c.match();
  }
  constexpr size_t kBlocked = std::numeric_limits<size_t>::max();
  std::vector<size_t> candidates;
  std::vector<size_t> candidate_index(domain_size, kBlocked);
  for (size_t v = 0; v < domain_size; ++v) {
    if (blocked.Test(v)) continue;
    candidate_index[v] = candidates.size();
    candidates.push_back(v);
  }
  // Per-candidate list of the constraints it matches, in increasing
  // constraint order.
  std::vector<std::vector<size_t>> affected(candidates.size());
  for (size_t c = 0; c < num_constraints; ++c) {
    for (size_t v = 0; v < domain_size; ++v) {
      const size_t ci = candidate_index[v];
      if (ci != kBlocked && constraints[c].match().Test(v)) {
        affected[ci].push_back(c);
      }
    }
  }

  std::vector<size_t> assignment;
  assignment.reserve(num_vars);
  // matched[c]: how many assigned variables currently match constraint c.
  std::vector<int64_t> matched(num_constraints, 0);

  // Recursive search over non-decreasing candidate-index sequences.
  // Returns false when a global cap fired (abort the whole search).
  auto recurse = [&](auto&& self, size_t depth, size_t min_index) -> bool {
    if (local.nodes >= max_nodes) {
      local.complete = false;
      return false;
    }
    ++local.nodes;

    const int64_t remaining = static_cast<int64_t>(num_vars - depth);
    // Feasibility pruning: the final count for constraint c lies in
    // [matched, matched + remaining]; a miss of [lo, hi] kills the branch.
    for (size_t c = 0; c < num_constraints; ++c) {
      if (matched[c] > constraints[c].hi ||
          matched[c] + remaining < constraints[c].lo) {
        return true;
      }
    }

    if (depth == num_vars) {
      // All constraints necessarily satisfied (remaining == 0 above).
      solutions.push_back(assignment);
      ++local.solutions;
      return local.solutions < max_solutions;
    }

    for (size_t ci = min_index; ci < candidates.size(); ++ci) {
      // Placing this value must not overshoot any hi.
      bool overshoot = false;
      for (size_t c : affected[ci]) {
        if (matched[c] + 1 > constraints[c].hi) {
          overshoot = true;
          break;
        }
      }
      if (overshoot) continue;

      assignment.push_back(candidates[ci]);
      for (size_t c : affected[ci]) ++matched[c];
      bool keep_going = self(self, depth + 1, ci);
      for (size_t c : affected[ci]) --matched[c];
      assignment.pop_back();
      if (!keep_going) return false;
    }
    return true;
  };

  if (!recurse(recurse, 0, 0) && local.solutions >= max_solutions) {
    // Stopped because the solution cap was reached: not exhaustive.
    local.complete = false;
  }
  finish();
  return solutions;
}

}  // namespace pso::oracles
