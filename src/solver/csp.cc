#include "solver/csp.h"

#include <cstdint>
#include <utility>

#include "common/check.h"
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

void CountCsp::AddCountConstraint(const BitVector* match, int64_t lo,
                                  int64_t hi) {
  PSO_CHECK(match != nullptr);
  // Poison instead of abort: callers probing with untrusted instances
  // (fuzzers, decoded tables) observe the error through build_status().
  if (build_status_.ok()) {
    if (match->size() != domain_size_) {
      build_status_ = Status::InvalidArgument(
          StrFormat("constraint %zu: mask has %zu entries, domain has %zu",
                    constraints_.size(), match->size(), domain_size_));
    } else if (lo < 0 || lo > hi) {
      build_status_ = Status::InvalidArgument(StrFormat(
          "constraint %zu: malformed count window [%lld, %lld]",
          constraints_.size(), (long long)lo, (long long)hi));
    }
  }
  if (!build_status_.ok()) return;
  constraints_.push_back(Constraint{match, lo, hi});
}

std::vector<size_t> CountCsp::Candidates(BitVector* blocked) const {
  // For census-style instances (exact zero cells for absent ages) this
  // shrinks the domain by orders of magnitude.
  BitVector ruled_out(domain_size_);
  for (const Constraint& c : constraints_) {
    if (c.hi == 0) ruled_out |= c.match();
  }
  std::vector<size_t> candidates;
  for (size_t v = 0; v < domain_size_; ++v) {
    if (!ruled_out.Test(v)) candidates.push_back(v);
  }
  if (blocked != nullptr) *blocked = std::move(ruled_out);
  return candidates;
}

bool CountCsp::IsSolution(const std::vector<size_t>& values) const {
  if (!build_status_.ok() || values.size() != num_vars_) return false;
  for (size_t v : values) {
    if (v >= domain_size_) return false;
  }
  for (const Constraint& c : constraints_) {
    int64_t matched = 0;
    for (size_t v : values) matched += c.match().Test(v) ? 1 : 0;
    if (matched < c.lo || matched > c.hi) return false;
  }
  return true;
}

std::vector<std::vector<size_t>> CountCsp::Enumerate(size_t max_solutions,
                                                     size_t max_nodes,
                                                     CspStats* stats) const {
  PSO_TRACE_SPAN("csp.enumerate");
  CspStats local;
  std::vector<std::vector<size_t>> solutions;
  static metrics::Counter& enumerations =
      metrics::GetCounter("csp.enumerations");
  static metrics::Counter& nodes = metrics::GetCounter("csp.nodes");
  const auto finish = [&] {
    enumerations.Add(1);
    nodes.Add(local.nodes);
    if (stats != nullptr) *stats = local;
  };
  // A poisoned instance has no meaningful answer: report an incomplete,
  // empty search so callers checking build_status() can hard-fail.
  if (!build_status_.ok()) {
    local.complete = false;
    finish();
    return solutions;
  }
  const size_t num_constraints = constraints_.size();
  const int64_t num_vars = static_cast<int64_t>(num_vars_);

  // The root is a node like any other. With nothing assigned, no count
  // exceeds its hi (0 <= lo <= hi), so the root fails exactly when some
  // constraint needs more matches than there are variables.
  if (max_nodes == 0) {
    local.complete = false;
    finish();
    return solutions;
  }
  ++local.nodes;
  for (const Constraint& c : constraints_) {
    if (c.lo > num_vars) {
      finish();
      return solutions;
    }
  }

  // Only candidates can be used; the row walks below skip the `blocked`
  // rest of the domain word by word.
  BitVector blocked;
  const std::vector<size_t> candidates = Candidates(&blocked);
  // candidate_index[v]: v's position in `candidates` (unblocked v only).
  std::vector<size_t> candidate_index(domain_size_, 0);
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    candidate_index[candidates[ci]] = ci;
  }

  // Each candidate's row of the constraints it matches, in one flat (CSR)
  // array: row ci is cols[row_begin[ci], row_begin[ci + 1]), holding first
  // the lo > 0 constraints (up to lo_end[ci]) and then those with lo == 0
  // and hi < num_vars, each part in increasing constraint order. A
  // constraint with lo == 0 and hi >= num_vars can never prune, and every
  // value a hi == 0 constraint matches is blocked, so no row lists either
  // kind; their tallies are never read. The rows are the transpose of the
  // constraint x value incidence, built by walking the unblocked set bits
  // of each remaining mask twice: once to size the rows, once to fill
  // them.
  const auto tracked = [&](const Constraint& c) {
    return c.hi > 0 && (c.lo > 0 || c.hi < num_vars);
  };
  std::vector<size_t> row_begin(candidates.size() + 1, 0);
  std::vector<size_t> lo_end(candidates.size(), 0);
  for (const Constraint& c : constraints_) {
    if (!tracked(c)) continue;
    c.match().ForEachSetExcept(blocked, [&](size_t v) {
      const size_t ci = candidate_index[v];
      ++row_begin[ci + 1];
      if (c.lo > 0) ++lo_end[ci];
    });
  }
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    row_begin[ci + 1] += row_begin[ci];
    lo_end[ci] += row_begin[ci];
  }
  std::vector<uint32_t> cols(row_begin.back());
  {
    std::vector<size_t> next_lo(row_begin.begin(), row_begin.end() - 1);
    std::vector<size_t> next_rest = lo_end;
    for (size_t c = 0; c < num_constraints; ++c) {
      if (!tracked(constraints_[c])) continue;
      std::vector<size_t>& next =
          constraints_[c].lo > 0 ? next_lo : next_rest;
      constraints_[c].match().ForEachSetExcept(blocked, [&](size_t v) {
        cols[next[candidate_index[v]]++] = static_cast<uint32_t>(c);
      });
    }
  }

  // deficit: lo minus the matches so far (<= 0 once lo is reached);
  // room: hi minus them. at_deficit[k] counts the constraints whose
  // deficit is exactly k, for k in [1, num_vars].
  struct Tally {
    int64_t deficit;
    int64_t room;
  };
  std::vector<Tally> tally(num_constraints);
  std::vector<size_t> at_deficit(num_vars_ + 1, 0);
  for (size_t c = 0; c < num_constraints; ++c) {
    tally[c] = Tally{constraints_[c].lo, constraints_[c].hi};
    if (constraints_[c].lo > 0) ++at_deficit[constraints_[c].lo];
  }
  // Places (step = -1) or removes (step = +1) candidate ci.
  const auto shift = [&](size_t ci, int64_t step) {
    for (size_t k = row_begin[ci]; k < lo_end[ci]; ++k) {
      Tally& t = tally[cols[k]];
      if (t.deficit > 0) --at_deficit[t.deficit];
      t.deficit += step;
      if (t.deficit > 0) ++at_deficit[t.deficit];
      t.room += step;
    }
    for (size_t k = lo_end[ci]; k < row_begin[ci + 1]; ++k) {
      tally[cols[k]].room += step;
    }
  };

  std::vector<size_t> assignment;
  assignment.reserve(num_vars_);
  // Records the full assignment; false once the solution cap is reached.
  const auto record = [&] {
    solutions.push_back(assignment);
    ++local.solutions;
    return local.solutions < max_solutions;
  };

  // Expands a feasible node at `depth` < num_vars over non-decreasing
  // candidate indices (symmetry breaking: variables are interchangeable).
  // Every deficit is at most the node's `remaining`, so a child is
  // feasible exactly when it matches all at_deficit[remaining]
  // constraints whose deficit equals `remaining`. Returns false when a
  // global cap fired (abort the whole search).
  const auto expand = [&](auto&& self, size_t depth,
                          size_t min_index) -> bool {
    const int64_t remaining = num_vars - static_cast<int64_t>(depth);
    const size_t due = at_deficit[remaining];
    for (size_t ci = min_index; ci < candidates.size(); ++ci) {
      // Placing this value must not overshoot any hi; such a child is
      // skipped without counting it as a node.
      const uint32_t* k = cols.data() + row_begin[ci];
      const uint32_t* const lo_stop = cols.data() + lo_end[ci];
      const uint32_t* const stop = cols.data() + row_begin[ci + 1];
      bool overshoot = false;
      size_t hits = 0;
      for (; k != lo_stop; ++k) {
        overshoot |= tally[*k].room == 0;
        hits += tally[*k].deficit == remaining ? 1 : 0;
      }
      for (; k != stop; ++k) overshoot |= tally[*k].room == 0;
      if (overshoot) continue;

      if (local.nodes >= max_nodes) {
        local.complete = false;
        return false;
      }
      ++local.nodes;
      // A constraint left at deficit `remaining` can no longer be met.
      if (hits != due) continue;

      assignment.push_back(candidates[ci]);
      shift(ci, -1);
      const bool keep_going =
          depth + 1 == num_vars_ ? record() : self(self, depth + 1, ci);
      shift(ci, +1);
      assignment.pop_back();
      if (!keep_going) return false;
    }
    return true;
  };

  const bool finished = num_vars_ == 0 ? record() : expand(expand, 0, 0);
  if (!finished && local.solutions >= max_solutions) {
    // Stopped because the solution cap was reached: not exhaustive.
    local.complete = false;
  }
  finish();
  return solutions;
}

}  // namespace pso
