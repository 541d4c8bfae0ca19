#include "solver/cdcl.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/progress.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "solver/sat_internal.h"

namespace pso {

namespace {

using sat_internal::Assign;
using sat_internal::kMaxSatInstants;

constexpr size_t kNoReason = static_cast<size_t>(-1);

// Heartbeat cadence in work units (decisions + conflicts). A work-count
// boundary, never a timer, so heartbeats replay deterministically.
constexpr uint64_t kCdclHeartbeatEvery = 64;

// luby(2, x): the reluctant-doubling sequence 1 1 2 1 1 2 4 1 1 2 1 1 2
// 4 8 ... governing the restart schedule.
size_t Luby(size_t x) {
  // Locate the finished subsequence of size 2^seq - 1 containing x.
  size_t size = 1;
  size_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) / 2;
    --seq;
    x %= size;
  }
  return size_t{1} << seq;
}

struct Clause {
  std::vector<Lit> lits;
  double activity = 0.0;  // learned clauses only
  bool learned = false;
};

// Indexed binary max-heap over variables ordered by (activity, then the
// LOWER index on ties) — the deterministic VSIDS order. `positions` maps
// a variable to its slot, or kNotInHeap.
class VsidsHeap {
 public:
  static constexpr size_t kNotInHeap = static_cast<size_t>(-1);

  VsidsHeap(uint32_t num_vars, const std::vector<double>& activity)
      : activity_(activity), positions_(num_vars, kNotInHeap) {
    heap_.reserve(num_vars);
    for (uint32_t v = 0; v < num_vars; ++v) Insert(v);
  }

  bool empty() const { return heap_.empty(); }
  bool contains(uint32_t v) const { return positions_[v] != kNotInHeap; }

  void Insert(uint32_t v) {
    if (contains(v)) return;
    positions_[v] = heap_.size();
    heap_.push_back(v);
    SiftUp(positions_[v]);
  }

  uint32_t PopMax() {
    uint32_t top = heap_[0];
    Swap(0, heap_.size() - 1);
    positions_[top] = kNotInHeap;
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
    return top;
  }

  /// Restores heap order around `v` after its activity grew.
  void Bumped(uint32_t v) {
    if (contains(v)) SiftUp(positions_[v]);
  }

 private:
  // Strict "a orders before b": higher activity first, lower index on a
  // tie — byte-identical runs need a total order.
  bool Before(uint32_t a, uint32_t b) const {
    if (activity_[a] != activity_[b]) return activity_[a] > activity_[b];
    return a < b;
  }

  void Swap(size_t i, size_t j) {
    std::swap(heap_[i], heap_[j]);
    positions_[heap_[i]] = i;
    positions_[heap_[j]] = j;
  }

  void SiftUp(size_t i) {
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (!Before(heap_[i], heap_[parent])) break;
      Swap(i, parent);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    for (;;) {
      size_t left = 2 * i + 1;
      size_t right = left + 1;
      size_t best = i;
      if (left < heap_.size() && Before(heap_[left], heap_[best])) {
        best = left;
      }
      if (right < heap_.size() && Before(heap_[right], heap_[best])) {
        best = right;
      }
      if (best == i) break;
      Swap(i, best);
      i = best;
    }
  }

  const std::vector<double>& activity_;
  std::vector<size_t> positions_;
  std::vector<uint32_t> heap_;
};

// All per-solve state.
class CdclSearch {
 public:
  CdclSearch(const SatInstance& inst, const SatSolveOptions& options)
      : inst_(inst),
        options_(options),
        values_(inst.num_vars, Assign::kUnset),
        levels_(inst.num_vars, 0),
        reasons_(inst.num_vars, kNoReason),
        saved_phase_(inst.num_vars, true),
        seen_(inst.num_vars, false),
        activity_(inst.num_vars, 0.0),
        watches_(2 * static_cast<size_t>(inst.num_vars)) {}

  // The solve span's active(): gates the capped sat.* instants.
  bool tracing = false;
  sat_internal::SearchStats stats;
  size_t instants_emitted = 0;

  Result<SatSolution> Run() {
    SatSolution out;
    if (inst_.trivially_unsat) {
      out.satisfiable = false;
      stats.CopyTo(out);
      return out;
    }

    // Load the instance: units enqueue at the root, larger clauses get
    // their first two literals watched. Activities seed from occurrence
    // counts, so the search starts informed and VSIDS refines from
    // conflicts.
    for (const std::vector<Lit>& c : inst_.clauses) {
      for (Lit l : c) activity_[LitVar(l)] += 1.0;
      if (c.size() == 1) {
        if (!RootEnqueue(c[0])) {
          out.satisfiable = false;
          stats.CopyTo(out);
          return out;
        }
      } else {
        clauses_.push_back(Clause{c, 0.0, false});
        Watch(clauses_.size() - 1);
      }
    }
    if (Propagate() != kNoReason) {
      out.satisfiable = false;
      stats.CopyTo(out);
      return out;
    }

    VsidsHeap heap(inst_.num_vars, activity_);
    bump_heap_ = &heap;
    size_t conflicts_until_restart = kCdclRestartUnit * Luby(0);
    size_t conflicts_this_restart = 0;
    size_t reduce_limit =
        std::max(kCdclReduceFloor, inst_.clauses.size() / 3);

    for (;;) {
      size_t confl = Propagate();
      if (confl != kNoReason) {
        ++stats.conflicts;
        ++conflicts_this_restart;
        CountWork();
        if (DecisionLevel() == 0) {
          out.satisfiable = false;  // conflict with no decisions: UNSAT
          stats.CopyTo(out);
          return out;
        }
        std::vector<Lit> learnt;
        size_t backjump_level = 0;
        Analyze(confl, &learnt, &backjump_level);
        stats.backjump_levels += DecisionLevel() - backjump_level;
        ++stats.backtracks;
        EmitConflictInstant(learnt.size(), backjump_level);
        BacktrackTo(backjump_level, &heap);
        if (learnt.size() == 1) {
          // Learned unit: asserted at the root, permanent. The UIP
          // variable was just unassigned by the backjump, so the enqueue
          // cannot itself conflict.
          PSO_CHECK(backjump_level == 0);
          ++stats.propagations;
          const bool asserted = RootEnqueue(learnt[0]);
          PSO_CHECK_MSG(asserted, "learned unit conflicted at the root");
        } else {
          clauses_.push_back(Clause{std::move(learnt), clause_inc_, true});
          ++stats.learned_clauses;
          Watch(clauses_.size() - 1);
          // The learned clause is asserting: lits[0] is forced now.
          const Clause& c = clauses_.back();
          ++stats.propagations;
          EnqueueLit(c.lits[0], clauses_.size() - 1);
        }
        DecayActivities();
        continue;
      }

      if (conflicts_this_restart >= conflicts_until_restart) {
        ++stats.restarts;
        conflicts_this_restart = 0;
        conflicts_until_restart = kCdclRestartUnit * Luby(stats.restarts);
        EmitRestartInstant();
        BacktrackTo(0, &heap);
        if (stats.learned_clauses >= reduce_limit) {
          ReduceLearnedDb();
          reduce_limit = static_cast<size_t>(
              static_cast<double>(reduce_limit) * kCdclReduceGrowth);
        }
        continue;
      }

      // Pick the next branch variable; none left means a full model.
      uint32_t decision_var = 0;
      bool found = false;
      while (!heap.empty()) {
        uint32_t v = heap.PopMax();
        if (values_[v] == Assign::kUnset) {
          decision_var = v;
          found = true;
          break;
        }
      }
      if (!found) {
        out.satisfiable = true;
        out.assignment.resize(inst_.num_vars);
        for (uint32_t v = 0; v < inst_.num_vars; ++v) {
          out.assignment[v] = (values_[v] == Assign::kTrue);
        }
        stats.CopyTo(out);
        return out;
      }

      ++stats.decisions;
      CountWork();
      if (options_.max_decisions > 0 &&
          stats.decisions > options_.max_decisions) {
        PSO_LOG(WARN)
                .Field("engine", "cdcl")
                .Field("budget", static_cast<uint64_t>(options_.max_decisions))
                .Field("conflicts", static_cast<uint64_t>(stats.conflicts))
                .Field("learned",
                       static_cast<uint64_t>(stats.learned_clauses))
            << "SAT decision budget exceeded";
        return Status::ResourceExhausted(
            StrFormat("SAT decision budget of %zu exceeded (cdcl)",
                      options_.max_decisions));
      }
      EmitDecisionInstant(decision_var);
      trail_limits_.push_back(trail_.size());
      EnqueueLit(MakeLit(decision_var, saved_phase_[decision_var]),
                 kNoReason);
    }
  }

  // Emits the final heartbeat of a traced solve that made any decision
  // or conflict, repeating the stats of the last one.
  void FinalBeat() {
    if (heartbeat_.work() > 0) EmitHeartbeat("final");
  }

 private:
  size_t DecisionLevel() const { return trail_limits_.size(); }

  bool LitIsTrue(Lit l) const {
    Assign v = values_[LitVar(l)];
    if (v == Assign::kUnset) return false;
    return (v == Assign::kTrue) == LitPositive(l);
  }

  bool LitIsFalse(Lit l) const {
    Assign v = values_[LitVar(l)];
    if (v == Assign::kUnset) return false;
    return (v == Assign::kTrue) != LitPositive(l);
  }

  // Registers the first two literals of clause `ci` as its watches.
  void Watch(size_t ci) {
    const Clause& c = clauses_[ci];
    watches_[c.lits[0]].push_back(ci);
    watches_[c.lits[1]].push_back(ci);
  }

  // Assigns `l` true at the current decision level with `reason`.
  void EnqueueLit(Lit l, size_t reason) {
    uint32_t v = LitVar(l);
    values_[v] = LitPositive(l) ? Assign::kTrue : Assign::kFalse;
    saved_phase_[v] = LitPositive(l);
    levels_[v] = DecisionLevel();
    reasons_[v] = reason;
    trail_.push_back(l);
  }

  // Level-0 assignment (initial units, learned units); false on conflict.
  bool RootEnqueue(Lit l) {
    if (LitIsTrue(l)) return true;
    if (LitIsFalse(l)) {
      ++stats.conflicts;
      return false;
    }
    EnqueueLit(l, kNoReason);
    return true;
  }

  // Two-watched-literal propagation over the trail suffix. Returns the
  // index of a conflicting clause, or kNoReason when a fixpoint is
  // reached without conflict.
  size_t Propagate() {
    while (qhead_ < trail_.size()) {
      Lit assigned = trail_[qhead_++];
      Lit falsified = LitNegate(assigned);
      std::vector<size_t>& watch_list = watches_[falsified];
      size_t keep = 0;
      for (size_t i = 0; i < watch_list.size(); ++i) {
        size_t ci = watch_list[i];
        Clause& c = clauses_[ci];
        // Normalize: the falsified watch sits at lits[1].
        if (c.lits[0] == falsified) std::swap(c.lits[0], c.lits[1]);
        if (LitIsTrue(c.lits[0])) {
          watch_list[keep++] = ci;  // satisfied; keep the watch
          continue;
        }
        // Hunt for a replacement watch among the tail literals.
        bool rewatched = false;
        for (size_t k = 2; k < c.lits.size(); ++k) {
          if (!LitIsFalse(c.lits[k])) {
            std::swap(c.lits[1], c.lits[k]);
            watches_[c.lits[1]].push_back(ci);
            rewatched = true;
            break;
          }
        }
        if (rewatched) continue;  // watch moved; drop from this list
        watch_list[keep++] = ci;  // stays watched here either way
        if (LitIsFalse(c.lits[0])) {
          // Conflict: restore the untraversed suffix and bail out.
          for (size_t j = i + 1; j < watch_list.size(); ++j) {
            watch_list[keep++] = watch_list[j];
          }
          watch_list.resize(keep);
          qhead_ = trail_.size();
          return ci;
        }
        // Unit: lits[0] is forced.
        ++stats.propagations;
        EnqueueLit(c.lits[0], ci);
      }
      watch_list.resize(keep);
    }
    return kNoReason;
  }

  // First-UIP conflict analysis. Fills `out_learnt` with the learned
  // clause — the asserting literal first, a highest-remaining-level
  // literal second (the backjump watch) — and `out_level` with the
  // non-chronological backjump target.
  void Analyze(size_t confl, std::vector<Lit>* out_learnt,
               size_t* out_level) {
    out_learnt->clear();
    out_learnt->push_back(0);  // slot for the asserting literal
    size_t path_count = 0;
    Lit uip = 0;
    size_t index = trail_.size();
    size_t reason = confl;
    bool first = true;

    // Walk the implication graph backwards from the conflict, marking
    // current-level variables until only the first UIP remains.
    for (;;) {
      PSO_CHECK_MSG(reason != kNoReason, "conflict analysis lost its path");
      Clause& c = clauses_[reason];
      if (c.learned) BumpClause(reason);
      // On the first round every clause literal seeds the cut; on later
      // rounds lits[0] is the resolved-on literal and is skipped.
      for (size_t k = first ? 0 : 1; k < c.lits.size(); ++k) {
        Lit q = c.lits[k];
        uint32_t v = LitVar(q);
        if (seen_[v] || levels_[v] == 0) continue;
        seen_[v] = true;
        BumpVar(v);
        if (levels_[v] == DecisionLevel()) {
          ++path_count;
        } else {
          out_learnt->push_back(q);
        }
      }
      first = false;
      // Next marked literal on the trail.
      do {
        --index;
      } while (!seen_[LitVar(trail_[index])]);
      uip = trail_[index];
      seen_[LitVar(uip)] = false;
      --path_count;
      if (path_count == 0) break;
      reason = reasons_[LitVar(uip)];
    }
    (*out_learnt)[0] = LitNegate(uip);

    // Backjump target: the highest level among the non-asserting
    // literals (0 for a learned unit). Keep that literal at slot 1 so it
    // becomes the second watch.
    *out_level = 0;
    for (size_t k = 1; k < out_learnt->size(); ++k) {
      uint32_t v = LitVar((*out_learnt)[k]);
      if (levels_[v] > *out_level) {
        *out_level = levels_[v];
        std::swap((*out_learnt)[1], (*out_learnt)[k]);
      }
    }
    for (Lit l : *out_learnt) seen_[LitVar(l)] = false;
  }

  // Unassigns everything above `level`, re-inserting freed variables
  // into the branch heap (phases stay saved).
  void BacktrackTo(size_t level, VsidsHeap* heap) {
    if (DecisionLevel() <= level) return;
    size_t keep = trail_limits_[level];
    for (size_t i = trail_.size(); i > keep; --i) {
      uint32_t v = LitVar(trail_[i - 1]);
      values_[v] = Assign::kUnset;
      reasons_[v] = kNoReason;
      heap->Insert(v);
    }
    trail_.resize(keep);
    trail_limits_.resize(level);
    qhead_ = keep;
  }

  void BumpVar(uint32_t v) {
    activity_[v] += var_inc_;
    if (activity_[v] > 1e100) {
      for (double& a : activity_) a *= 1e-100;
      var_inc_ *= 1e-100;
    }
    if (bump_heap_ != nullptr) bump_heap_->Bumped(v);
  }

  void BumpClause(size_t ci) {
    clauses_[ci].activity += clause_inc_;
    if (clauses_[ci].activity > 1e20) {
      for (Clause& c : clauses_) {
        if (c.learned) c.activity *= 1e-20;
      }
      clause_inc_ *= 1e-20;
    }
  }

  void DecayActivities() {
    var_inc_ /= kCdclVarDecay;
    clause_inc_ /= kCdclClauseDecay;
  }

  // Evicts the lowest-activity half of the learned clauses (binary and
  // reason clauses are kept) and rebuilds the watch lists over the
  // compacted clause vector. Runs only at level 0 (restart boundaries).
  void ReduceLearnedDb() {
    PSO_CHECK(DecisionLevel() == 0);
    std::vector<size_t> learned_idx;
    for (size_t ci = 0; ci < clauses_.size(); ++ci) {
      if (clauses_[ci].learned && clauses_[ci].lits.size() > 2 &&
          !Locked(ci)) {
        learned_idx.push_back(ci);
      }
    }
    // Lowest activity first; index ascending on ties (determinism).
    std::sort(learned_idx.begin(), learned_idx.end(),
              [this](size_t a, size_t b) {
                if (clauses_[a].activity != clauses_[b].activity) {
                  return clauses_[a].activity < clauses_[b].activity;
                }
                return a < b;
              });
    std::vector<bool> drop(clauses_.size(), false);
    for (size_t i = 0; i < learned_idx.size() / 2; ++i) {
      drop[learned_idx[i]] = true;
    }

    // Compact, remembering old -> new so variable reasons stay valid.
    std::vector<size_t> remap(clauses_.size(), kNoReason);
    std::vector<Clause> kept;
    kept.reserve(clauses_.size());
    for (size_t ci = 0; ci < clauses_.size(); ++ci) {
      if (drop[ci]) continue;
      remap[ci] = kept.size();
      kept.push_back(std::move(clauses_[ci]));
    }
    clauses_ = std::move(kept);
    for (uint32_t v = 0; v < inst_.num_vars; ++v) {
      if (reasons_[v] != kNoReason) reasons_[v] = remap[reasons_[v]];
    }
    for (std::vector<size_t>& wl : watches_) wl.clear();
    for (size_t ci = 0; ci < clauses_.size(); ++ci) Watch(ci);
  }

  // A clause that is the recorded reason of an assigned variable must
  // survive DB reduction.
  bool Locked(size_t ci) const {
    Lit first = clauses_[ci].lits[0];
    return values_[LitVar(first)] != Assign::kUnset &&
           reasons_[LitVar(first)] == ci;
  }

  // Called after each decision and conflict: at the cadence boundary,
  // publishes the counters so far and traces a heartbeat.
  void CountWork() {
    if (tracing) beat_stats_ = stats;
    if (!heartbeat_.Due(stats.decisions + stats.conflicts)) return;
    publisher_.Publish();
    if (tracing) EmitHeartbeat("tick");
  }

  void EmitHeartbeat(const char* beat) {
    progress::EmitInstant(
        "cdcl", beat, heartbeat_.work(),
        {{"conflicts", static_cast<double>(beat_stats_.conflicts)},
         {"decisions", static_cast<double>(beat_stats_.decisions)},
         {"learned", static_cast<double>(beat_stats_.learned_clauses)},
         {"restarts", static_cast<double>(beat_stats_.restarts)}});
  }

  bool InstantBudget() {
    if (!tracing || !trace::Enabled()) return false;
    if (instants_emitted >= kMaxSatInstants) return false;
    ++instants_emitted;
    return true;
  }

  void EmitDecisionInstant(uint32_t var) {
    if (!InstantBudget()) return;
    trace::Instant("sat.decision",
                   {{"var", std::to_string(var)},
                    {"depth", std::to_string(DecisionLevel())}});
  }

  void EmitConflictInstant(size_t learnt_size, size_t backjump_level) {
    if (!InstantBudget()) return;
    trace::Instant("sat.conflict",
                   {{"level", std::to_string(DecisionLevel())},
                    {"backjump", std::to_string(backjump_level)},
                    {"learnt_size", std::to_string(learnt_size)}});
  }

  void EmitRestartInstant() {
    if (!InstantBudget()) return;
    trace::Instant("sat.restart",
                   {{"conflicts", std::to_string(stats.conflicts)},
                    {"learned", std::to_string(stats.learned_clauses)}});
  }

  const SatInstance& inst_;
  const SatSolveOptions& options_;
  std::vector<Assign> values_;
  std::vector<size_t> levels_;
  std::vector<size_t> reasons_;
  std::vector<bool> saved_phase_;
  std::vector<bool> seen_;
  std::vector<double> activity_;
  std::vector<std::vector<size_t>> watches_;  // literal -> watching clauses
  std::vector<Clause> clauses_;
  std::vector<Lit> trail_;
  std::vector<size_t> trail_limits_;
  size_t qhead_ = 0;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  // Set once the branch heap exists so VSIDS bumps restore heap order.
  VsidsHeap* bump_heap_ = nullptr;
  progress::Heartbeat heartbeat_{kCdclHeartbeatEvery};
  // `stats` at the last decision or conflict, kept while tracing for the
  // heartbeat args.
  sat_internal::SearchStats beat_stats_;
  sat_internal::MetricsPublisher publisher_{&stats, /*cdcl=*/true};
};

}  // namespace

Result<SatSolution> SolveCdcl(const SatInstance& inst,
                              const SatSolveOptions& options) {
  CdclSearch search(inst, options);

  PSO_NAMED_SPAN(solve_span, "sat.solve");
  search.tracing = solve_span.active();
  if (search.tracing) {
    solve_span.Arg("vars", std::to_string(inst.num_vars));
    solve_span.Arg("clauses", std::to_string(inst.clauses.size()));
  }

  Result<SatSolution> result = search.Run();
  if (search.tracing) search.FinalBeat();
  return result;
}

}  // namespace pso
