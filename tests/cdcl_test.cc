// Unit tests for the CDCL engine (solver/cdcl.h): first-UIP learning
// with backjump-to-root on learned units, restart determinism, edge-case
// instances, incremental NewVariable encoding, and the CDCL-only
// counters. Functional agreement with the DPLL oracle is covered by
// sat_test, proptest_solver_test, and the fuzz harnesses; this file pins
// the engine's own mechanics. SatSolver::Solve runs CDCL.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "solver/cdcl.h"
#include "solver/sat.h"

namespace pso {
namespace {

// Pigeonhole instance: `pigeons` into `holes`, UNSAT when pigeons >
// holes. Conflict-rich, so it exercises learning and restarts.
SatSolver Pigeonhole(uint32_t pigeons, uint32_t holes) {
  SatSolver s(pigeons * holes);
  for (uint32_t p = 0; p < pigeons; ++p) {
    std::vector<Lit> somewhere;
    for (uint32_t h = 0; h < holes; ++h) {
      somewhere.push_back(MakeLit(p * holes + h, true));
    }
    s.AddClause(somewhere);
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (uint32_t p1 = 0; p1 < pigeons; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.AddBinary(MakeLit(p1 * holes + h, false),
                    MakeLit(p2 * holes + h, false));
      }
    }
  }
  return s;
}

TEST(CdclTest, LearnedUnitBackjumpsToRoot) {
  // x0 has the highest occurrence count and phase saving starts at true,
  // so the first decision is x0 = true. That propagates x1 and ~x1 — a
  // conflict whose first UIP is the unit ~x0, asserted at the root.
  SatSolver s(2);
  s.AddBinary(MakeLit(0, false), MakeLit(1, true));
  s.AddBinary(MakeLit(0, false), MakeLit(1, false));
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->satisfiable);
  EXPECT_FALSE(sol->assignment[0]);
  EXPECT_EQ(sol->conflicts, 1u);
  EXPECT_EQ(sol->backtracks, 1u);
  // A learned unit is a root assertion, not a stored clause.
  EXPECT_EQ(sol->learned_clauses, 0u);
}

TEST(CdclTest, LearnsClausesOnUnsatInstance) {
  SatSolver s = Pigeonhole(4, 3);
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
  EXPECT_GT(sol->conflicts, 0u);
  EXPECT_GT(sol->learned_clauses, 0u);
  // Every conflict backjumps except the final one at the root, which
  // proves UNSAT and terminates the search.
  EXPECT_EQ(sol->backtracks + 1, sol->conflicts);
}

TEST(CdclTest, BackjumpLevelsCounterAdvances) {
  const uint64_t before = metrics::GetCounter("sat.backjump_levels").value();
  SatSolver s = Pigeonhole(5, 4);
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
  // Every conflict backjumps at least one level, so the aggregate must
  // move by at least the conflict count.
  EXPECT_GE(metrics::GetCounter("sat.backjump_levels").value(),
            before + sol->conflicts);
}

TEST(CdclTest, RestartsAreDeterministic) {
  // A conflict-rich instance crossing the first Luby restart threshold:
  // two independent solves must take the identical path.
  SatSolution first;
  SatSolution second;
  for (SatSolution* out : {&first, &second}) {
    SatSolver s = Pigeonhole(7, 6);
    auto sol = s.Solve();
    ASSERT_TRUE(sol.ok());
    *out = *sol;
  }
  EXPECT_FALSE(first.satisfiable);
  EXPECT_GT(first.restarts, 0u);
  EXPECT_EQ(first.decisions, second.decisions);
  EXPECT_EQ(first.propagations, second.propagations);
  EXPECT_EQ(first.conflicts, second.conflicts);
  EXPECT_EQ(first.restarts, second.restarts);
  EXPECT_EQ(first.learned_clauses, second.learned_clauses);
}

TEST(CdclTest, EmptyFormula) {
  SatSolver s(4);
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->satisfiable);
  EXPECT_EQ(sol->decisions, 4u);  // every free variable needs a decision
}

TEST(CdclTest, UnitOnlyFormulaSolvesWithoutDecisions) {
  SatSolver s(3);
  s.AddUnit(MakeLit(0, true));
  s.AddUnit(MakeLit(1, false));
  s.AddUnit(MakeLit(2, true));
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->satisfiable);
  EXPECT_TRUE(sol->assignment[0]);
  EXPECT_FALSE(sol->assignment[1]);
  EXPECT_TRUE(sol->assignment[2]);
  EXPECT_EQ(sol->decisions, 0u);
}

TEST(CdclTest, TriviallyUnsatInstance) {
  SatSolver s(2);
  s.AddClause({});
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
  EXPECT_EQ(sol->decisions, 0u);
  EXPECT_EQ(sol->conflicts, 0u);
}

TEST(CdclTest, ContradictoryUnitsDetectedAtRoot) {
  SatSolver s(1);
  s.AddUnit(MakeLit(0, true));
  s.AddUnit(MakeLit(0, false));
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
  EXPECT_EQ(sol->decisions, 0u);
}

TEST(CdclTest, NewVariableMidEncoding) {
  // Variables introduced after clauses already exist (the cardinality
  // encoders do this constantly) must be decided and reported.
  SatSolver s(2);
  s.AddBinary(MakeLit(0, true), MakeLit(1, true));
  uint32_t aux = s.NewVariable();
  ASSERT_EQ(aux, 2u);
  s.AddBinary(MakeLit(aux, true), MakeLit(0, false));
  s.AddUnit(MakeLit(aux, false));  // forces x0 false, hence x1 true
  auto sol = s.Solve();
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->satisfiable);
  ASSERT_EQ(sol->assignment.size(), 3u);
  EXPECT_FALSE(sol->assignment[2]);
  EXPECT_FALSE(sol->assignment[0]);
  EXPECT_TRUE(sol->assignment[1]);
}

TEST(CdclTest, DecisionBudgetMentionsEngine) {
  SatSolver s = Pigeonhole(9, 8);
  auto sol = s.Solve(/*max_decisions=*/3);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(sol.status().ToString().find("cdcl"), std::string::npos);
}

}  // namespace
}  // namespace pso
