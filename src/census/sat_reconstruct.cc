#include "census/sat_reconstruct.h"

#include <algorithm>
#include <string>

#include "census/cells.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "solver/sat.h"

namespace pso::census {

namespace {

// Candidate person-values consistent with the zero cells of the tables
// (mirrors the CSP engine's candidate filter, over the age, sex by age
// bucket, race and Hispanic families).
std::vector<size_t> FeasibleValues(const BlockTables& t,
                                   const CellMasks& cells) {
  BitVector blocked(kPersonDomain);
  const auto block_zero_cells = [&](const std::vector<BitVector>& masks,
                                    const std::vector<int64_t>& counts) {
    PSO_CHECK(counts.size() == masks.size());
    for (size_t i = 0; i < masks.size(); ++i) {
      if (counts[i] + t.noise_slack <= 0) blocked |= masks[i];
    }
  };
  block_zero_cells(cells.by_age, t.by_age);
  block_zero_cells(cells.by_sex_age_bucket, t.by_sex_age_bucket);
  block_zero_cells(cells.by_race, t.by_race);
  block_zero_cells(cells.by_hispanic, t.by_hispanic);
  std::vector<size_t> candidates;
  for (size_t v = 0; v < kPersonDomain; ++v) {
    if (!blocked.Test(v)) candidates.push_back(v);
  }
  return candidates;
}

}  // namespace

std::vector<Record> BlockCnf::Decode(
    const std::vector<bool>& assignment) const {
  const size_t m = candidates.size();
  std::vector<Record> records;
  records.reserve(persons);
  for (size_t p = 0; p < persons; ++p) {
    for (size_t c = 0; c < m; ++c) {
      if (assignment[p * m + c]) {
        records.push_back(DecodePerson(candidates[c]));
        break;
      }
    }
  }
  return records;
}

BlockCnf EncodeBlockSat(const BlockTables& tables) {
  BlockCnf cnf;
  const size_t n = static_cast<size_t>(tables.total);
  cnf.persons = n;
  if (n == 0) return cnf;
  const CellMasks& cells = CensusCells();
  cnf.candidates = FeasibleValues(tables, cells);
  const std::vector<size_t>& candidates = cnf.candidates;
  const size_t m = candidates.size();
  if (m == 0) return cnf;

  // y[p][c]: person p takes candidate c.
  cnf.solver = SatSolver(static_cast<uint32_t>(n * m));
  SatSolver& solver = cnf.solver;
  auto y = [m](size_t p, size_t c) {
    return MakeLit(static_cast<uint32_t>(p * m + c), true);
  };
  for (size_t p = 0; p < n; ++p) {
    std::vector<Lit> row;
    row.reserve(m);
    for (size_t c = 0; c < m; ++c) row.push_back(y(p, c));
    solver.AddExactlyOne(row);
  }
  // Permutation symmetry breaking: person p's candidate index is
  // non-decreasing in p. Encode with prefix variables per person:
  // ge[p][c] = "person p's candidate index >= c".
  // Cheaper approximation: order only via the first candidate... For the
  // small blocks here the cardinality constraints prune enough; skip.

  // { y[p][c] : candidates[c] in `cell` }, person-major.
  auto cell_lits = [&](const BitVector& cell) {
    std::vector<size_t> hits;
    for (size_t c = 0; c < m; ++c) {
      if (cell.Test(candidates[c])) hits.push_back(c);
    }
    std::vector<Lit> lits;
    lits.reserve(n * hits.size());
    for (size_t p = 0; p < n; ++p) {
      for (size_t c : hits) lits.push_back(y(p, c));
    }
    return lits;
  };
  // Cardinality constraint: the count of persons in the cell lies in the
  // table's window.
  auto add_count = [&](const BitVector& cell, int64_t count) {
    const std::vector<Lit> lits = cell_lits(cell);
    int64_t lo = std::max<int64_t>(0, count - tables.noise_slack);
    int64_t hi = count + tables.noise_slack;
    if (lits.empty()) {
      // No candidate matches: satisfiable only if lo == 0.
      if (lo > 0) solver.AddClause({});  // empty clause: unsat
      return;
    }
    solver.AddAtMostK(lits, static_cast<size_t>(
                                std::min<int64_t>(hi, (int64_t)lits.size())));
    solver.AddAtLeastK(lits,
                       static_cast<size_t>(
                           std::min<int64_t>(lo, (int64_t)lits.size())));
  };
  auto add_cells = [&](const std::vector<BitVector>& masks,
                       const std::vector<int64_t>& counts, size_t begin,
                       size_t end) {
    PSO_CHECK(counts.size() == masks.size() && end <= masks.size());
    for (size_t i = begin; i < end; ++i) add_count(masks[i], counts[i]);
  };

  add_cells(cells.by_age, tables.by_age, 0, cells.by_age.size());
  add_cells(cells.by_sex_age_bucket, tables.by_sex_age_bucket, 0,
            cells.by_sex_age_bucket.size());
  // Each race total, then that race's sex by age bucket cells.
  const size_t sex_age_cells = 2 * kAgeBuckets;
  for (size_t race = 0; race < 6; ++race) {
    add_cells(cells.by_race, tables.by_race, race, race + 1);
    add_cells(cells.by_race_sex_age_bucket, tables.by_race_sex_age_bucket,
              race * sex_age_cells, (race + 1) * sex_age_cells);
  }
  // Likewise for Hispanic origin.
  for (size_t h = 0; h < 2; ++h) {
    add_cells(cells.by_hispanic, tables.by_hispanic, h, h + 1);
    add_cells(cells.by_hispanic_sex_age_bucket,
              tables.by_hispanic_sex_age_bucket, h * sex_age_cells,
              (h + 1) * sex_age_cells);
  }

  // Median age (lower median), same widened one-sided bounds as the CSP.
  if (tables.median_age.has_value()) {
    const int64_t med = *tables.median_age;
    auto add_at_least = [&](const BitVector& cell, int64_t lo) {
      const std::vector<Lit> lits = cell_lits(cell);
      lo = std::max<int64_t>(0, lo - tables.noise_slack);
      if (static_cast<size_t>(lo) > lits.size()) {
        solver.AddClause({});  // unsatisfiable bound
        return;
      }
      solver.AddAtLeastK(lits, static_cast<size_t>(lo));
    };
    add_at_least(cells.AgeAtMost(med), static_cast<int64_t>((n + 1) / 2));
    add_at_least(cells.AgeAtLeast(med), static_cast<int64_t>(n / 2 + 1));
  }
  return cnf;
}

Result<SatReconstruction> ReconstructBlockSat(const BlockTables& tables,
                                              size_t max_decisions) {
  const size_t n = static_cast<size_t>(tables.total);
  trace::Span block_span("census.sat_block");
  if (block_span.active()) {
    block_span.Arg("persons", std::to_string(n));
  }
  SatReconstruction out;
  if (n == 0) {
    out.satisfiable = true;
    return out;
  }

  BlockCnf cnf = EncodeBlockSat(tables);
  if (cnf.candidates.empty()) {
    out.satisfiable = false;
    return out;
  }
  const SatSolver& solver = cnf.solver;
  Result<SatSolution> solved = solver.Solve(max_decisions);
  if (!solved.ok()) {
    if (solved.status().code() == StatusCode::kResourceExhausted) {
      // Budget ran out: a first-class outcome, not an error. The solver
      // is healthy; the block just needs more decisions than allowed.
      metrics::GetCounter("census.sat_budget_exhausted").Add(1);
      out.budget_exhausted = true;
      out.decisions = max_decisions;
      out.variables = solver.num_vars();
      return out;
    }
    return solved.status();
  }

  out.satisfiable = solved->satisfiable;
  out.decisions = solved->decisions;
  out.conflicts = solved->conflicts;
  out.variables = solver.num_vars();
  if (solved->satisfiable) out.reconstructed = cnf.Decode(solved->assignment);
  return out;
}

}  // namespace pso::census
