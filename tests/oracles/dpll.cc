// Chronological DPLL: the differential oracle for the CDCL engine.
//
// Occurrence-list unit propagation (every clause containing the falsified
// literal is rescanned), static branching on the unassigned variable with
// the most clause occurrences, and chronological backtracking: a conflict
// flips the most recent decision that has an untried phase.

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "oracles/oracles.h"
#include "solver/sat_internal.h"

namespace pso {

namespace {

using sat_internal::Assign;
using sat_internal::kMaxSatInstants;

// All per-solve search state.
struct DpllSearch {
  const SatInstance& inst;
  std::vector<Assign> values;
  // Occurrence list: clauses containing l, visited when ~l is assigned.
  std::vector<std::vector<size_t>> occurrences;
  std::vector<double> activity;
  std::vector<Lit> trail;
  sat_internal::SearchStats stats;

  explicit DpllSearch(const SatInstance& instance)
      : inst(instance),
        values(instance.num_vars, Assign::kUnset),
        occurrences(2 * static_cast<size_t>(instance.num_vars)),
        activity(instance.num_vars, 0.0) {
    for (size_t ci = 0; ci < inst.clauses.size(); ++ci) {
      for (Lit l : inst.clauses[ci]) {
        occurrences[l].push_back(ci);
        activity[LitVar(l)] += 1.0;
      }
    }
  }

  bool LitIsTrue(Lit l) const {
    Assign v = values[LitVar(l)];
    if (v == Assign::kUnset) return false;
    return (v == Assign::kTrue) == LitPositive(l);
  }

  bool LitIsFalse(Lit l) const {
    Assign v = values[LitVar(l)];
    if (v == Assign::kUnset) return false;
    return (v == Assign::kTrue) != LitPositive(l);
  }

  // Assigns l true, propagates; returns false on conflict.
  bool Enqueue(Lit l) {
    if (LitIsTrue(l)) return true;
    if (LitIsFalse(l)) {
      ++stats.conflicts;
      return false;
    }
    values[LitVar(l)] = LitPositive(l) ? Assign::kTrue : Assign::kFalse;
    trail.push_back(l);

    // BFS unit propagation from the newly assigned literal.
    for (size_t head = trail.size() - 1; head < trail.size(); ++head) {
      Lit assigned = trail[head];
      Lit falsified = LitNegate(assigned);
      for (size_t ci : occurrences[falsified]) {
        const std::vector<Lit>& clause = inst.clauses[ci];
        Lit unit = 0;
        size_t unassigned = 0;
        bool satisfied = false;
        for (Lit cl : clause) {
          if (LitIsTrue(cl)) {
            satisfied = true;
            break;
          }
          if (!LitIsFalse(cl)) {
            ++unassigned;
            unit = cl;
            if (unassigned > 1) break;
          }
        }
        if (satisfied || unassigned > 1) continue;
        if (unassigned == 0) {
          ++stats.conflicts;
          return false;  // conflict
        }
        ++stats.propagations;
        values[LitVar(unit)] =
            LitPositive(unit) ? Assign::kTrue : Assign::kFalse;
        trail.push_back(unit);
      }
    }
    return true;
  }

  void Unwind(size_t keep) {
    while (trail.size() > keep) {
      values[LitVar(trail.back())] = Assign::kUnset;
      trail.pop_back();
    }
  }
};

Result<SatSolution> Search(const SatInstance& inst,
                           const SatSolveOptions& options) {
  DpllSearch search(inst);

  PSO_NAMED_SPAN(solve_span, "sat.solve");
  const bool tracing = solve_span.active();
  if (tracing) {
    solve_span.Arg("vars", std::to_string(inst.num_vars));
    solve_span.Arg("clauses", std::to_string(inst.clauses.size()));
  }
  size_t instants_emitted = 0;

  // Publish this solve's search statistics on every exit path.
  sat_internal::MetricsPublisher publish{&search.stats};

  SatSolution out;
  if (inst.trivially_unsat) {
    out.satisfiable = false;
    search.stats.CopyTo(out);
    return out;
  }

  // Propagate initial unit clauses.
  for (const auto& clause : inst.clauses) {
    if (clause.size() == 1) {
      if (!search.Enqueue(clause[0])) {
        out.satisfiable = false;
        search.stats.CopyTo(out);
        return out;
      }
    }
  }

  // Iterative DPLL with an explicit decision stack.
  struct Frame {
    uint32_t var;
    bool tried_second;
    size_t trail_size;
  };
  std::vector<Frame> stack;

  auto pick_branch_var = [&]() -> int64_t {
    int64_t best = -1;
    double best_act = -1.0;
    for (uint32_t v = 0; v < inst.num_vars; ++v) {
      if (search.values[v] == Assign::kUnset &&
          search.activity[v] > best_act) {
        best_act = search.activity[v];
        best = v;
      }
    }
    return best;
  };

  for (;;) {
    int64_t v = pick_branch_var();
    if (v < 0) {
      // All variables assigned without conflict: satisfiable.
      out.satisfiable = true;
      out.assignment.resize(inst.num_vars);
      for (uint32_t i = 0; i < inst.num_vars; ++i) {
        out.assignment[i] = (search.values[i] == Assign::kTrue);
      }
      search.stats.CopyTo(out);
      return out;
    }

    ++search.stats.decisions;
    if (options.max_decisions > 0 &&
        search.stats.decisions > options.max_decisions) {
      return Status::ResourceExhausted(
          StrFormat("SAT decision budget of %zu exceeded (dpll)",
                    options.max_decisions));
    }
    if (tracing && instants_emitted < kMaxSatInstants && trace::Enabled()) {
      ++instants_emitted;
      trace::Instant("sat.decision",
                     {{"var", std::to_string(v)},
                      {"depth", std::to_string(stack.size())}});
    }

    stack.push_back(
        Frame{static_cast<uint32_t>(v), false, search.trail.size()});
    bool ok = search.Enqueue(MakeLit(static_cast<uint32_t>(v), true));

    while (!ok) {
      // Backtrack to the most recent frame with an untried phase.
      while (!stack.empty() && stack.back().tried_second) {
        search.Unwind(stack.back().trail_size);
        stack.pop_back();
      }
      if (stack.empty()) {
        out.satisfiable = false;
        search.stats.CopyTo(out);
        return out;
      }
      Frame& frame = stack.back();
      search.Unwind(frame.trail_size);
      frame.tried_second = true;
      ++search.stats.backtracks;
      if (tracing && instants_emitted < kMaxSatInstants &&
          trace::Enabled()) {
        ++instants_emitted;
        trace::Instant("sat.backtrack",
                       {{"var", std::to_string(frame.var)},
                        {"depth", std::to_string(stack.size())}});
      }
      ok = search.Enqueue(MakeLit(frame.var, false));
    }
  }
}

}  // namespace

namespace oracles {

Result<SatSolution> Dpll(const SatSolver& solver,
                         const SatSolveOptions& options) {
  if (!solver.build_status().ok()) return solver.build_status();
  return Search(solver.instance(), options);
}

}  // namespace oracles
}  // namespace pso
