// Differential property tests for the three solvers, each checked
// against an independent brute-force oracle on randomized tiny
// instances (ctest label: proptest):
//
//   * LP simplex vs exhaustive vertex enumeration (a bounded feasible
//     region's optimum is attained at a vertex, and every vertex is the
//     intersection of n active planes from the bound/constraint set);
//   * both SAT engines (CDCL and its DPLL oracle) vs exhaustive
//     truth-table search, and vs each other (status must agree exactly);
//   * count-CSP vs its CNF encoding (solver/csp_sat.h) solved by each
//     engine, and vs direct multiset enumeration.
//
// All cases derive from pinned Rng::StreamAt seeds; see proptest.h.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "csp_brute_force.h"
#include "oracles/lp_io.h"
#include "oracles/oracles.h"
#include "proptest.h"
#include "solver/csp.h"
#include "solver/csp_sat.h"
#include "solver/lp.h"
#include "solver/sat.h"

namespace pso {
namespace {

// ---------------------------------------------------------------------
// LP vs brute-force vertex enumeration.
// ---------------------------------------------------------------------

// Integer-valued tiny LPs keep the oracle's Gaussian elimination exact to
// well below the comparison tolerance. About one variable in seven gets
// an infinite upper bound, so the generator reaches the kUnbounded status
// path (the vertex oracle only runs on fully box-bounded instances).
LpInstance GenTinyLp(Rng& rng, size_t scale) {
  LpInstance inst;
  const size_t n = 1 + static_cast<size_t>(rng.UniformUint64(3));
  for (size_t i = 0; i < n; ++i) {
    LpInstance::Variable v;
    v.lower = static_cast<double>(rng.UniformInt(-3, 3));
    const int64_t max_width = static_cast<int64_t>(scale < 4 ? scale : 4);
    if (rng.Bernoulli(0.15)) {
      v.upper = std::numeric_limits<double>::infinity();
    } else {
      v.upper = v.lower + static_cast<double>(rng.UniformInt(0, max_width));
    }
    v.cost = static_cast<double>(rng.UniformInt(-3, 3));
    inst.variables.push_back(v);
  }
  const uint64_t max_rows = scale < 4 ? scale : 4;
  const size_t m = static_cast<size_t>(rng.UniformUint64(max_rows + 1));
  for (size_t r = 0; r < m; ++r) {
    LpInstance::Row row;
    for (size_t i = 0; i < n; ++i) {
      int64_t c = rng.UniformInt(-2, 2);
      if (c != 0) row.coeffs.emplace_back(i, static_cast<double>(c));
    }
    row.rel = static_cast<Relation>(rng.UniformUint64(3));
    row.rhs = static_cast<double>(rng.UniformInt(-6, 6));
    inst.rows.push_back(std::move(row));
  }
  return inst;
}

struct LpOracleResult {
  bool feasible = false;
  double objective = std::numeric_limits<double>::infinity();
};

// Solves the k x k system A x = b by Gaussian elimination with partial
// pivoting; false when singular (within tolerance).
bool SolveSquare(std::vector<std::vector<double>> a, std::vector<double> b,
                 std::vector<double>* x) {
  const size_t k = b.size();
  for (size_t col = 0; col < k; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < k; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-9) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t r = 0; r < k; ++r) {
      if (r == col) continue;
      double f = a[r][col] / a[col][col];
      if (f == 0.0) continue;
      for (size_t c = col; c < k; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  x->assign(k, 0.0);
  for (size_t i = 0; i < k; ++i) (*x)[i] = b[i] / a[i][i];
  return true;
}

bool PointFeasible(const LpInstance& inst, const std::vector<double>& x,
                   double tol) {
  for (size_t i = 0; i < inst.variables.size(); ++i) {
    if (x[i] < inst.variables[i].lower - tol ||
        x[i] > inst.variables[i].upper + tol) {
      return false;
    }
  }
  for (const LpInstance::Row& row : inst.rows) {
    double sum = 0.0;
    for (const auto& [idx, coeff] : row.coeffs) sum += coeff * x[idx];
    switch (row.rel) {
      case Relation::kLessEq:
        if (sum > row.rhs + tol) return false;
        break;
      case Relation::kGreaterEq:
        if (sum < row.rhs - tol) return false;
        break;
      case Relation::kEqual:
        if (std::fabs(sum - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

// Enumerates every intersection of n planes drawn from the variable
// bounds and the constraint boundaries; the minimum objective over the
// feasible intersections is the LP optimum (the region is a polytope:
// every variable is box-bounded).
LpOracleResult BruteForceLp(const LpInstance& inst) {
  const size_t n = inst.variables.size();
  std::vector<std::vector<double>> planes;  // a . x = b, a has n entries
  std::vector<double> rhs;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> unit(n, 0.0);
    unit[i] = 1.0;
    planes.push_back(unit);
    rhs.push_back(inst.variables[i].lower);
    planes.push_back(std::move(unit));
    rhs.push_back(inst.variables[i].upper);
  }
  for (const LpInstance::Row& row : inst.rows) {
    std::vector<double> dense(n, 0.0);
    for (const auto& [idx, coeff] : row.coeffs) dense[idx] += coeff;
    planes.push_back(std::move(dense));
    rhs.push_back(row.rhs);
  }

  LpOracleResult out;
  std::vector<size_t> pick(n, 0);
  // Odometer over all n-subsets (with repetition pruned by ordering).
  auto visit = [&](auto&& self, size_t depth, size_t first) -> void {
    if (depth == n) {
      std::vector<std::vector<double>> a(n);
      std::vector<double> b(n);
      for (size_t k = 0; k < n; ++k) {
        a[k] = planes[pick[k]];
        b[k] = rhs[pick[k]];
      }
      std::vector<double> x;
      if (!SolveSquare(std::move(a), std::move(b), &x)) return;
      if (!PointFeasible(inst, x, 1e-6)) return;
      double obj = 0.0;
      for (size_t i = 0; i < n; ++i) obj += inst.variables[i].cost * x[i];
      out.feasible = true;
      if (obj < out.objective) out.objective = obj;
      return;
    }
    for (size_t p = first; p < planes.size(); ++p) {
      pick[depth] = p;
      self(self, depth + 1, p + 1);
    }
  };
  visit(visit, 0, 0);
  return out;
}

// Every generated instance is solved by BOTH simplex engines; the
// statuses must match exactly (optimal / kInfeasible / kUnbounded) and
// optimal objectives must agree. Box-bounded instances are additionally
// checked against the brute-force vertex oracle.
struct EngineOutcome {
  Status status;  // default-constructed OK
  double objective = 0.0;

  bool ok() const { return status.ok(); }
};

EngineOutcome SolveOn(oracles::LpSolveFn solve, const LpInstance& inst) {
  EngineOutcome out;
  Result<LpSolution> got = solve(ToProblem(inst));
  if (got.ok()) {
    out.objective = got->objective;
  } else {
    out.status = got.status();
  }
  return out;
}

bool BoxBounded(const LpInstance& inst) {
  for (const LpInstance::Variable& v : inst.variables) {
    if (std::isinf(v.upper)) return false;
  }
  return true;
}

TEST(LpDifferentialTest, BackendsAgreeAndMatchVertexEnumeration) {
  proptest::Config cfg{/*master_seed=*/0x11aa22bb, /*iterations=*/300,
                       /*max_scale=*/4, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<LpInstance>(
      cfg, GenTinyLp, [](const LpInstance& inst) -> std::string {
        EngineOutcome dense = SolveOn(&oracles::DenseSimplex, inst);
        EngineOutcome sparse = SolveOn(&oracles::RevisedSimplex, inst);
        for (const EngineOutcome* r : {&dense, &sparse}) {
          if (!r->ok() &&
              r->status.code() != StatusCode::kInfeasible &&
              r->status.code() != StatusCode::kUnbounded) {
            return "solver returned unexpected status " +
                   r->status.ToString();
          }
        }
        if (dense.status.code() != sparse.status.code()) {
          return StrFormat(
              "status disagrees: dense=%s sparse=%s (%zu vars, %zu rows)",
              dense.status.ToString().c_str(),
              sparse.status.ToString().c_str(), inst.variables.size(),
              inst.rows.size());
        }
        if (dense.ok() &&
            std::fabs(dense.objective - sparse.objective) > 1e-6) {
          return StrFormat(
              "engines disagree on objective: dense=%.9g sparse=%.9g",
              dense.objective, sparse.objective);
        }
        if (!BoxBounded(inst)) return "";  // oracle needs a polytope

        LpOracleResult oracle = BruteForceLp(inst);
        if (dense.ok() != oracle.feasible) {
          return StrFormat(
              "feasibility disagrees: simplex=%s oracle=%s (%zu vars, %zu "
              "rows)",
              dense.ok() ? "feasible" : "infeasible",
              oracle.feasible ? "feasible" : "infeasible",
              inst.variables.size(), inst.rows.size());
        }
        if (dense.ok() &&
            std::fabs(dense.objective - oracle.objective) > 1e-5) {
          return StrFormat("objective disagrees: simplex=%.9g oracle=%.9g",
                           dense.objective, oracle.objective);
        }
        return "";
      }));
}

// ---------------------------------------------------------------------
// SAT vs exhaustive truth-table search.
// ---------------------------------------------------------------------

struct CnfCase {
  uint32_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

CnfCase GenCnf(Rng& rng, size_t scale) {
  CnfCase cnf;
  const uint64_t max_vars = 2 + (scale < 10 ? scale : 10);  // <= 12
  cnf.num_vars = 1 + static_cast<uint32_t>(rng.UniformUint64(max_vars));
  const size_t num_clauses =
      static_cast<size_t>(rng.UniformUint64(3 * scale + 2));
  for (size_t c = 0; c < num_clauses; ++c) {
    size_t len = 1 + static_cast<size_t>(rng.UniformUint64(3));
    std::vector<Lit> clause;
    for (size_t k = 0; k < len; ++k) {
      uint32_t var = static_cast<uint32_t>(rng.UniformUint64(cnf.num_vars));
      clause.push_back(MakeLit(var, rng.Bernoulli(0.5)));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

bool AssignmentSatisfies(const CnfCase& cnf, uint64_t mask) {
  for (const std::vector<Lit>& clause : cnf.clauses) {
    bool sat = false;
    for (Lit l : clause) {
      bool value = (mask >> LitVar(l)) & 1;
      if (value == LitPositive(l)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

TEST(SatDifferentialTest, BackendsMatchExhaustiveSearchAndEachOther) {
  proptest::Config cfg{/*master_seed=*/0x33cc44dd, /*iterations=*/300,
                       /*max_scale=*/10, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<CnfCase>(
      cfg, GenCnf, [](const CnfCase& cnf) -> std::string {
        bool oracle_sat = false;
        for (uint64_t mask = 0; mask < (1ull << cnf.num_vars); ++mask) {
          if (AssignmentSatisfies(cnf, mask)) {
            oracle_sat = true;
            break;
          }
        }
        for (const oracles::SatEngine& engine : oracles::kSatEngines) {
          SatSolver solver(cnf.num_vars);
          for (const auto& clause : cnf.clauses) solver.AddClause(clause);
          Result<SatSolution> got = engine.solve(solver, {});
          if (!got.ok()) return "solver error: " + got.status().ToString();
          if (got->satisfiable != oracle_sat) {
            return StrFormat(
                "satisfiability disagrees: %s=%d exhaustive=%d (%u vars, "
                "%zu clauses)",
                engine.name, got->satisfiable ? 1 : 0, oracle_sat ? 1 : 0,
                cnf.num_vars, cnf.clauses.size());
          }
          if (got->satisfiable) {
            uint64_t mask = 0;
            for (uint32_t v = 0; v < cnf.num_vars; ++v) {
              if (got->assignment[v]) mask |= 1ull << v;
            }
            if (!AssignmentSatisfies(cnf, mask)) {
              return StrFormat("%s's model does not satisfy the formula",
                               engine.name);
            }
          }
        }
        return "";
      }));
}

// ---------------------------------------------------------------------
// Count-CSP vs SAT cross-encoding (and vs direct multiset enumeration).
// ---------------------------------------------------------------------

CspCase GenCsp(Rng& rng, size_t scale) {
  CspCase c;
  const uint64_t max_vars = 1 + (scale < 4 ? scale : 4);  // <= 5
  c.num_vars = 1 + static_cast<size_t>(rng.UniformUint64(max_vars));
  c.domain = 1 + static_cast<size_t>(rng.UniformUint64(4));
  const size_t m = static_cast<size_t>(rng.UniformUint64(4));
  for (size_t k = 0; k < m; ++k) {
    CspCase::Count count;
    count.match = BitVector(c.domain);
    for (size_t v = 0; v < c.domain; ++v) {
      if (rng.Bernoulli(0.5)) count.match.Set(v);
    }
    // Windows reach past num_vars on both ends: lo > num_vars is dead at
    // the root, and hi >= num_vars can never overfill.
    const int64_t n = static_cast<int64_t>(c.num_vars);
    count.lo = rng.UniformInt(0, n + 1);
    count.hi = rng.UniformInt(count.lo, n + 2);
    c.counts.push_back(std::move(count));
  }
  return c;
}

TEST(CspDifferentialTest, CspMatchesSatCrossEncodingAndBruteForce) {
  proptest::Config cfg{/*master_seed=*/0x55ee66ff, /*iterations=*/250,
                       /*max_scale=*/4, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<CspCase>(
      cfg, GenCsp, [](const CspCase& c) -> std::string {
        CountCsp csp(c.num_vars, c.domain);
        for (const CspCase::Count& count : c.counts) {
          csp.AddCountConstraint(&count.match, count.lo, count.hi);
        }
        if (!csp.build_status().ok()) {
          return "CSP build error: " + csp.build_status().ToString();
        }
        CspStats stats;
        std::vector<std::vector<size_t>> sols =
            csp.Enumerate(/*max_solutions=*/100000, /*max_nodes=*/1000000,
                          &stats);
        if (!stats.complete) return "CSP search hit a cap unexpectedly";

        size_t brute = BruteForceCspSolutions(c);
        if (sols.size() != brute) {
          return StrFormat(
              "solution count disagrees: csp=%zu brute-force=%zu (%zu "
              "vars, domain %zu, %zu constraints)",
              sols.size(), brute, c.num_vars, c.domain, c.counts.size());
        }

        // The production CNF encoding of the same instance, on both
        // engines: same verdict, and a model is a solution.
        const CspCnf cnf = EncodeCspCnf(csp);
        for (const oracles::SatEngine& engine : oracles::kSatEngines) {
          Result<SatSolution> got = engine.solve(cnf.solver, {});
          if (!got.ok()) {
            return "SAT encoding error: " + got.status().ToString();
          }
          if (got->satisfiable != !sols.empty()) {
            return StrFormat(
                "satisfiability disagrees: sat-encoding(%s)=%d csp=%d",
                engine.name, got->satisfiable ? 1 : 0,
                sols.empty() ? 0 : 1);
          }
          if (got->satisfiable &&
              !SatisfiesEveryCount(c, cnf.Decode(got->assignment))) {
            return StrFormat("%s's model breaks a count window",
                             engine.name);
          }
        }
        return "";
      }));
}

}  // namespace
}  // namespace pso
