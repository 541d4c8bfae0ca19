// Tests for the SAT layer, parameterized over the conflict-driven CDCL
// engine (SatSolver::Solve) and its chronological DPLL oracle. Every
// functional property must hold regardless of which engine solves the
// instance.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/rng.h"
#include "oracles/oracles.h"
#include "solver/sat.h"

namespace pso {
namespace {

TEST(SatTest, LiteralEncoding) {
  Lit pos = MakeLit(3, true);
  Lit neg = MakeLit(3, false);
  EXPECT_EQ(LitVar(pos), 3u);
  EXPECT_TRUE(LitPositive(pos));
  EXPECT_FALSE(LitPositive(neg));
  EXPECT_EQ(LitNegate(pos), neg);
  EXPECT_EQ(LitNegate(neg), pos);
}

// Fixture solving through the parameter engine.
class SatEngineTest : public ::testing::TestWithParam<oracles::SatEngine> {
 protected:
  Result<SatSolution> Solve(SatSolver& s, size_t max_decisions = 0) {
    SatSolveOptions options;
    options.max_decisions = max_decisions;
    return GetParam().solve(s, options);
  }
};

TEST_P(SatEngineTest, TrivialSat) {
  SatSolver s(1);
  s.AddUnit(MakeLit(0, true));
  auto sol = Solve(s);
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->satisfiable);
  EXPECT_TRUE(sol->assignment[0]);
}

TEST_P(SatEngineTest, TrivialUnsat) {
  SatSolver s(1);
  s.AddUnit(MakeLit(0, true));
  s.AddUnit(MakeLit(0, false));
  auto sol = Solve(s);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
}

TEST_P(SatEngineTest, EmptyClauseIsUnsat) {
  SatSolver s(2);
  s.AddClause({});
  auto sol = Solve(s);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
}

TEST_P(SatEngineTest, EmptyFormulaIsSat) {
  SatSolver s(3);
  auto sol = Solve(s);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->satisfiable);
}

TEST_P(SatEngineTest, TautologicalClauseDropped) {
  SatSolver s(1);
  s.AddBinary(MakeLit(0, true), MakeLit(0, false));  // x or ~x
  s.AddUnit(MakeLit(0, false));
  auto sol = Solve(s);
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->satisfiable);
  EXPECT_FALSE(sol->assignment[0]);
}

TEST_P(SatEngineTest, ImplicationChainPropagates) {
  // x0 and (x0 -> x1) and (x1 -> x2) ... forces all true.
  const uint32_t n = 20;
  SatSolver s(n);
  s.AddUnit(MakeLit(0, true));
  for (uint32_t i = 0; i + 1 < n; ++i) {
    s.AddBinary(MakeLit(i, false), MakeLit(i + 1, true));
  }
  auto sol = Solve(s);
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->satisfiable);
  for (uint32_t i = 0; i < n; ++i) EXPECT_TRUE(sol->assignment[i]);
}

TEST_P(SatEngineTest, ExactlyOneConstraint) {
  SatSolver s(4);
  std::vector<Lit> lits;
  for (uint32_t v = 0; v < 4; ++v) lits.push_back(MakeLit(v, true));
  s.AddExactlyOne(lits);
  auto sol = Solve(s);
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->satisfiable);
  int trues = 0;
  for (uint32_t v = 0; v < 4; ++v) trues += sol->assignment[v] ? 1 : 0;
  EXPECT_EQ(trues, 1);
}

TEST_P(SatEngineTest, PigeonholeUnsat) {
  // 4 pigeons into 3 holes: var p*3+h means pigeon p in hole h.
  const uint32_t pigeons = 4;
  const uint32_t holes = 3;
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
  auto sol = Solve(s);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->satisfiable);
}

TEST_P(SatEngineTest, DecisionLimitIsResourceExhausted) {
  // Hard pigeonhole with a tiny decision budget: the solver must report
  // kResourceExhausted (a first-class budget outcome), never kInternal.
  const uint32_t pigeons = 9;
  const uint32_t holes = 8;
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
  auto sol = Solve(s, /*max_decisions=*/5);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kResourceExhausted);
}

INSTANTIATE_TEST_SUITE_P(Engines, SatEngineTest,
                         ::testing::ValuesIn(oracles::kSatEngines),
                         [](const auto& info) { return info.param.name; });

// Property: on random satisfiable 3-SAT (planted solution), both engines
// must find some satisfying assignment, and it must actually satisfy every
// clause.
class SatRandomTest : public ::testing::TestWithParam<
                          std::tuple<int, oracles::SatEngine>> {};

TEST_P(SatRandomTest, PlantedInstanceSolvedAndVerified) {
  Rng rng(500 + std::get<0>(GetParam()));
  const uint32_t n = 30;
  const size_t m = 100;
  std::vector<bool> planted(n);
  for (uint32_t v = 0; v < n; ++v) planted[v] = rng.Bernoulli(0.5);

  SatSolver s(n);
  std::vector<std::vector<Lit>> clauses;
  for (size_t j = 0; j < m; ++j) {
    std::vector<Lit> clause;
    bool satisfied_by_planted = false;
    for (int k = 0; k < 3; ++k) {
      uint32_t v = static_cast<uint32_t>(rng.UniformUint64(n));
      bool sign = rng.Bernoulli(0.5);
      clause.push_back(MakeLit(v, sign));
      if (planted[v] == sign) satisfied_by_planted = true;
    }
    if (!satisfied_by_planted) {
      // Flip one literal to agree with the planted assignment.
      uint32_t v = LitVar(clause[0]);
      clause[0] = MakeLit(v, planted[v]);
    }
    s.AddClause(clause);
    clauses.push_back(std::move(clause));
  }
  auto sol = std::get<1>(GetParam()).solve(s, {});
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->satisfiable);
  for (const auto& clause : clauses) {
    bool ok = false;
    for (Lit l : clause) {
      if (sol->assignment[LitVar(l)] == LitPositive(l)) {
        ok = true;
        break;
      }
    }
    EXPECT_TRUE(ok);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SatRandomTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::ValuesIn(oracles::kSatEngines)),
    [](const auto& info) {
      return std::string(std::get<1>(info.param).name) + "_" +
             std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace pso
