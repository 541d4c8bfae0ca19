// Tests for the SAT back-end of the census reconstruction, including
// cross-validation against the CSP engine and the cardinality encodings.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "census/reconstruct.h"
#include "census/sat_reconstruct.h"
#include "oracles/oracles.h"
#include "solver/csp_sat.h"
#include "solver/sat.h"

namespace pso::census {
namespace {

Population SmallPopulation(uint64_t seed, size_t blocks, size_t min_size,
                           size_t max_size) {
  PopulationOptions opts;
  opts.num_blocks = blocks;
  opts.min_block_size = min_size;
  opts.max_block_size = max_size;
  Rng rng(seed);
  return GeneratePopulation(opts, rng);
}

// Multiset equality of record lists.
bool SameMultiset(const std::vector<Record>& a, const Dataset& b) {
  if (a.size() != b.size()) return false;
  std::map<Record, int> counts;
  for (const Record& r : a) ++counts[r];
  for (const Record& r : b.records()) --counts[r];
  for (const auto& [r, c] : counts) {
    if (c != 0) return false;
  }
  return true;
}

TEST(SatCardinalityTest, AtMostKEnforced) {
  // 5 literals, at most 2 true, with 3 forced true: UNSAT.
  SatSolver s(5);
  std::vector<Lit> lits;
  for (uint32_t v = 0; v < 5; ++v) lits.push_back(MakeLit(v, true));
  s.AddAtMostK(lits, 2);
  s.AddUnit(lits[0]);
  s.AddUnit(lits[2]);
  s.AddUnit(lits[4]);
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
}

TEST(SatCardinalityTest, AtMostKSatisfiableAtBound) {
  SatSolver s(5);
  std::vector<Lit> lits;
  for (uint32_t v = 0; v < 5; ++v) lits.push_back(MakeLit(v, true));
  s.AddAtMostK(lits, 2);
  s.AddUnit(lits[1]);
  s.AddUnit(lits[3]);
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->satisfiable);
  int trues = 0;
  for (uint32_t v = 0; v < 5; ++v) trues += sol->assignment[v] ? 1 : 0;
  EXPECT_LE(trues, 2);
}

TEST(SatCardinalityTest, ExactlyKCounts) {
  for (size_t k : {0u, 1u, 3u, 6u}) {
    SatSolver s(6);
    std::vector<Lit> lits;
    for (uint32_t v = 0; v < 6; ++v) lits.push_back(MakeLit(v, true));
    s.AddAtMostK(lits, k);
    s.AddAtLeastK(lits, k);
    auto sol = s.Solve();
    ASSERT_TRUE(sol.ok());
    ASSERT_TRUE(sol->satisfiable) << "k=" << k;
    size_t trues = 0;
    for (uint32_t v = 0; v < 6; ++v) trues += sol->assignment[v] ? 1 : 0;
    EXPECT_EQ(trues, k);
  }
}

TEST(SatCardinalityTest, AtLeastImpossibleIsUnsat) {
  SatSolver s(3);
  std::vector<Lit> lits = {MakeLit(0, true), MakeLit(1, true),
                           MakeLit(2, true)};
  s.AddAtLeastK(lits, 2);
  s.AddUnit(MakeLit(0, false));
  s.AddUnit(MakeLit(1, false));
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
}

// Every SAT solution fits every window of its block's CountCsp, on exact
// tables and on DP tables, and the SAT verdict matches the CSP engine's
// wherever that search reached one. ReconstructBlock does not search a
// block whose published total is 0, so there is nothing to compare.
TEST(SatReconstructTest, SolutionsFitEveryWindow) {
  Population pop = SmallPopulation(21, 20, 2, 4);
  Rng rng(25);
  ReconstructOptions csp_options;
  csp_options.max_nodes = 100000;
  for (double eps : {0.0, 2.0, 8.0}) {
    size_t solved = 0;
    for (const Block& b : pop.blocks) {
      BlockTables t = eps > 0.0 ? TabulateDp(b, eps, rng) : Tabulate(b);
      auto sat = ReconstructBlockSat(t, /*max_decisions=*/500000);
      ASSERT_TRUE(sat.ok()) << sat.status().ToString();
      ASSERT_FALSE(sat->budget_exhausted) << "eps=" << eps;
      if (sat->satisfiable) {
        ++solved;
        EXPECT_TRUE(ConsistentWithTables(t, sat->reconstructed))
            << "eps=" << eps << " block " << t.block_id;
      }
      BlockReconstruction csp = ReconstructBlock(t, b.persons, csp_options);
      const bool csp_found = csp.solutions_found > 0;
      if (t.total > 0 && (csp.exhausted || csp_found)) {
        EXPECT_EQ(sat->satisfiable, csp_found)
            << "eps=" << eps << " block " << t.block_id;
      }
    }
    // Exact tables admit the true block. At eps 2 the model, which takes
    // the noisy total as exact, is infeasible for most small blocks, so
    // only the eps 8 leg is sure to reach the window check.
    if (eps == 0.0) {
      EXPECT_EQ(solved, pop.blocks.size());
    } else if (eps == 8.0) {
      EXPECT_GT(solved, 0u);
    }
  }
}

TEST(SatReconstructTest, AgreesWithCspOnUniqueBlocks) {
  Population pop = SmallPopulation(22, 15, 2, 5);
  size_t unique_checked = 0;
  for (const Block& b : pop.blocks) {
    BlockTables t = Tabulate(b);
    BlockReconstruction csp = ReconstructBlock(t, b.persons);
    if (!csp.unique) continue;
    ++unique_checked;
    auto sat = ReconstructBlockSat(t, 500000);
    ASSERT_TRUE(sat.ok());
    ASSERT_TRUE(sat->satisfiable);
    // Unique solution: SAT must return exactly the ground truth multiset.
    EXPECT_TRUE(SameMultiset(sat->reconstructed, b.persons));
  }
  EXPECT_GT(unique_checked, 3u);  // the comparison actually exercised
}

TEST(SatReconstructTest, EmptyBlock) {
  Block empty{0, Dataset{MakeCensusBlockUniverse().schema}, {}};
  BlockTables t = Tabulate(empty);
  auto sat = ReconstructBlockSat(t);
  ASSERT_TRUE(sat.ok());
  EXPECT_TRUE(sat->satisfiable);
  EXPECT_TRUE(sat->reconstructed.empty());
}

TEST(SatReconstructTest, BudgetExhaustionIsFirstClassOutcome) {
  // A starved decision budget must never surface as an error: the
  // reconstruction reports budget_exhausted = true and stays ok().
  Population pop = SmallPopulation(23, 1, 5, 5);
  BlockTables t = Tabulate(pop.blocks[0]);
  auto sat = ReconstructBlockSat(t, /*max_decisions=*/1);
  ASSERT_TRUE(sat.ok()) << sat.status().ToString();
  if (sat->budget_exhausted) {
    EXPECT_TRUE(sat->reconstructed.empty());
    EXPECT_EQ(sat->decisions, 1u);
  } else {
    // Solved within one decision (all units): a complete solution.
    EXPECT_TRUE(sat->satisfiable);
  }
}

TEST(SatReconstructTest, BackendsAgreeBlockwise) {
  // CDCL and its DPLL oracle must produce table-consistent solutions and
  // identical satisfiability on the same census encodings.
  Population pop = SmallPopulation(24, 6, 2, 5);
  SatSolveOptions options;
  options.max_decisions = 500000;
  for (const Block& b : pop.blocks) {
    BlockTables t = Tabulate(b);
    const CountCsp csp = EncodeBlockCsp(t);
    const CspCnf cnf = EncodeCspCnf(csp);
    ASSERT_FALSE(cnf.candidates.empty());
    auto dpll = oracles::Dpll(cnf.solver, options);
    auto cdcl = ReconstructBlockSat(t, options.max_decisions);
    ASSERT_TRUE(dpll.ok()) << dpll.status().ToString();
    ASSERT_TRUE(cdcl.ok());
    ASSERT_FALSE(cdcl->budget_exhausted);
    EXPECT_EQ(dpll->satisfiable, cdcl->satisfiable);
    ASSERT_TRUE(dpll->satisfiable);
    EXPECT_TRUE(csp.IsSolution(cnf.Decode(dpll->assignment)));
    EXPECT_TRUE(ConsistentWithTables(t, cdcl->reconstructed));
  }
}

}  // namespace
}  // namespace pso::census
