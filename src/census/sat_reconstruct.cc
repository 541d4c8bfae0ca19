#include "census/sat_reconstruct.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "solver/sat.h"

namespace pso::census {

namespace {

// Candidate person-values consistent with the zero cells of the tables
// (mirrors the CSP engine's candidate filter).
std::vector<size_t> FeasibleValues(const BlockTables& t) {
  std::vector<size_t> candidates;
  const int64_t slack = t.noise_slack;
  for (size_t v = 0; v < kPersonDomain; ++v) {
    Record r = DecodePerson(v);
    size_t age = static_cast<size_t>(r[kAge]);
    size_t sex = static_cast<size_t>(r[kSex]);
    size_t bucket = age / 5;
    bool ok = t.by_age[age] + slack > 0 &&
              t.by_sex_age_bucket[sex * kAgeBuckets + bucket] + slack > 0 &&
              t.by_race[static_cast<size_t>(r[kRace])] + slack > 0 &&
              t.by_hispanic[static_cast<size_t>(r[kHispanic])] + slack > 0;
    if (ok) candidates.push_back(v);
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
  cnf.candidates = FeasibleValues(tables);
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

  // Cardinality constraint helper: count over persons of membership in a
  // candidate subset.
  auto add_count = [&](const std::vector<bool>& match, int64_t count) {
    std::vector<Lit> lits;
    for (size_t p = 0; p < n; ++p) {
      for (size_t c = 0; c < m; ++c) {
        if (match[c]) lits.push_back(y(p, c));
      }
    }
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
  auto match_mask = [&](auto&& pred) {
    std::vector<bool> mask(m, false);
    for (size_t c = 0; c < m; ++c) {
      mask[c] = pred(DecodePerson(candidates[c]));
    }
    return mask;
  };

  for (int64_t age = 0; age <= kMaxAge; ++age) {
    add_count(match_mask([age](const Record& r) { return r[kAge] == age; }),
              tables.by_age[static_cast<size_t>(age)]);
  }
  for (int64_t sex = 0; sex < 2; ++sex) {
    for (size_t bucket = 0; bucket < kAgeBuckets; ++bucket) {
      add_count(match_mask([sex, bucket](const Record& r) {
                  return r[kSex] == sex &&
                         static_cast<size_t>(r[kAge]) / 5 == bucket;
                }),
                tables.by_sex_age_bucket[static_cast<size_t>(sex) *
                                             kAgeBuckets +
                                         bucket]);
    }
  }
  for (int64_t race = 0; race < 6; ++race) {
    add_count(
        match_mask([race](const Record& r) { return r[kRace] == race; }),
        tables.by_race[static_cast<size_t>(race)]);
    for (int64_t sex = 0; sex < 2; ++sex) {
      for (size_t bucket = 0; bucket < kAgeBuckets; ++bucket) {
        add_count(match_mask([race, sex, bucket](const Record& r) {
                    return r[kRace] == race && r[kSex] == sex &&
                           static_cast<size_t>(r[kAge]) / 5 == bucket;
                  }),
                  tables.by_race_sex_age_bucket
                      [(static_cast<size_t>(race) * 2 +
                        static_cast<size_t>(sex)) *
                           kAgeBuckets +
                       bucket]);
      }
    }
  }
  for (int64_t h = 0; h < 2; ++h) {
    add_count(
        match_mask([h](const Record& r) { return r[kHispanic] == h; }),
        tables.by_hispanic[static_cast<size_t>(h)]);
    for (int64_t sex = 0; sex < 2; ++sex) {
      for (size_t bucket = 0; bucket < kAgeBuckets; ++bucket) {
        add_count(match_mask([h, sex, bucket](const Record& r) {
                    return r[kHispanic] == h && r[kSex] == sex &&
                           static_cast<size_t>(r[kAge]) / 5 == bucket;
                  }),
                  tables.by_hispanic_sex_age_bucket
                      [(static_cast<size_t>(h) * 2 +
                        static_cast<size_t>(sex)) *
                           kAgeBuckets +
                       bucket]);
      }
    }
  }

  // Median age (lower median), same widened one-sided bounds as the CSP.
  if (tables.median_age.has_value()) {
    int64_t med = *tables.median_age;
    auto add_at_least = [&](const std::vector<bool>& match, int64_t lo) {
      std::vector<Lit> lits;
      for (size_t p = 0; p < n; ++p) {
        for (size_t c = 0; c < m; ++c) {
          if (match[c]) lits.push_back(y(p, c));
        }
      }
      lo = std::max<int64_t>(0, lo - tables.noise_slack);
      if (static_cast<size_t>(lo) > lits.size()) {
        solver.AddClause({});  // unsatisfiable bound
        return;
      }
      solver.AddAtLeastK(lits, static_cast<size_t>(lo));
    };
    add_at_least(
        match_mask([med](const Record& r) { return r[kAge] <= med; }),
        static_cast<int64_t>((n + 1) / 2));
    add_at_least(
        match_mask([med](const Record& r) { return r[kAge] >= med; }),
        static_cast<int64_t>(n / 2 + 1));
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
