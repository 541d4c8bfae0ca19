#include "solver/csp.h"

#include <limits>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"

namespace pso {

CountCsp::CountCsp(size_t num_vars, size_t domain_size)
    : num_vars_(num_vars), domain_size_(domain_size) {
  if (domain_size_ == 0) {
    build_status_ = Status::InvalidArgument("domain size must be positive");
  }
}

void CountCsp::AddCountConstraint(BitVector match, int64_t lo, int64_t hi) {
  // Poison instead of abort: callers probing with untrusted instances
  // (fuzzers, decoded tables) observe the error through build_status().
  if (build_status_.ok()) {
    if (match.size() != domain_size_) {
      build_status_ = Status::InvalidArgument(
          StrFormat("constraint %zu: mask has %zu entries, domain has %zu",
                    masks_.size(), match.size(), domain_size_));
    } else if (lo < 0 || lo > hi) {
      build_status_ = Status::InvalidArgument(StrFormat(
          "constraint %zu: malformed count window [%lld, %lld]",
          masks_.size(), (long long)lo, (long long)hi));
    }
  }
  if (!build_status_.ok()) return;
  masks_.push_back(std::move(match));
  windows_.push_back(Window{lo, hi});
}

std::vector<std::vector<size_t>> CountCsp::Enumerate(size_t max_solutions,
                                                     size_t max_nodes,
                                                     CspStats* stats) const {
  PSO_TRACE_SPAN("csp.enumerate");
  CspStats local;
  std::vector<std::vector<size_t>> solutions;
  const auto finish = [&] {
    metrics::GetCounter("csp.enumerations").Add(1);
    metrics::GetCounter("csp.nodes").Add(local.nodes);
    if (stats != nullptr) *stats = local;
  };
  // A poisoned instance has no meaningful answer: report an incomplete,
  // empty search so callers checking build_status() can hard-fail.
  if (!build_status_.ok()) {
    local.complete = false;
    finish();
    return solutions;
  }
  const size_t num_constraints = windows_.size();

  // Candidate filter: a value matching any hi == 0 constraint can never be
  // used. For census-style instances (exact zero cells for absent ages)
  // this shrinks the domain by orders of magnitude.
  BitVector blocked(domain_size_);
  for (size_t c = 0; c < num_constraints; ++c) {
    if (windows_[c].hi == 0) blocked |= masks_[c];
  }
  constexpr size_t kBlocked = std::numeric_limits<size_t>::max();
  std::vector<size_t> candidates;
  std::vector<size_t> candidate_index(domain_size_, kBlocked);
  for (size_t v = 0; v < domain_size_; ++v) {
    if (blocked.Test(v)) continue;
    candidate_index[v] = candidates.size();
    candidates.push_back(v);
  }
  // Per-candidate list of the constraints it matches, in increasing
  // constraint order (for O(#affected) incremental updates instead of
  // scanning every constraint per child). Built by walking each mask's
  // set bits once: the transpose of the constraint x value incidence.
  std::vector<std::vector<size_t>> affected(candidates.size());
  for (size_t c = 0; c < num_constraints; ++c) {
    masks_[c].ForEachSet([&](size_t v) {
      const size_t ci = candidate_index[v];
      if (ci != kBlocked) affected[ci].push_back(c);
    });
  }

  std::vector<size_t> assignment;
  assignment.reserve(num_vars_);
  // matched[c]: how many assigned variables currently match constraint c.
  std::vector<int64_t> matched(num_constraints, 0);

  // Recursive search over non-decreasing candidate-index sequences
  // (symmetry breaking: variables are interchangeable). Aligned to 64
  // bytes so the per-node scan keeps one placement whatever code links
  // before it: a 48-byte shift from unrelated code cost ~15% of the
  // census search on an Intel Xeon host.
  auto recurse = [&](auto&& self, size_t depth,
                     size_t min_index) __attribute__((aligned(64))) -> bool {
    // Returns false when a global cap fired (abort the whole search).
    if (local.nodes >= max_nodes) {
      local.complete = false;
      return false;
    }
    ++local.nodes;

    const int64_t remaining = static_cast<int64_t>(num_vars_ - depth);
    // Feasibility pruning: the final count for constraint c lies in
    // [matched, matched + remaining]; a miss of [lo, hi] kills the branch.
    for (size_t c = 0; c < num_constraints; ++c) {
      if (matched[c] > windows_[c].hi ||
          matched[c] + remaining < windows_[c].lo) {
        return true;
      }
    }

    if (depth == num_vars_) {
      // All constraints necessarily satisfied (remaining == 0 above).
      solutions.push_back(assignment);
      ++local.solutions;
      return local.solutions < max_solutions;
    }

    for (size_t ci = min_index; ci < candidates.size(); ++ci) {
      // Cheap pre-check on just the affected constraints: placing this
      // value must not overshoot any hi.
      bool overshoot = false;
      for (size_t c : affected[ci]) {
        if (matched[c] + 1 > windows_[c].hi) {
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

bool CountCsp::IsSatisfiable(size_t max_nodes) const {
  CspStats stats;
  auto sols = Enumerate(1, max_nodes, &stats);
  return !sols.empty();
}

}  // namespace pso
