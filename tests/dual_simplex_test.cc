// Tests for the revised simplex's dual phase (ctest label: proptest).
//
// The dual phase runs first whenever the cold basis can be made dual
// feasible, which the L1 fit of LP decoding always can. These tests pin
// what it promises:
//   * on L1 fits with exact, bounded and Laplace answers it reaches the
//     dense oracle's optimum by itself, leaving the primal phases no
//     pivot;
//   * a breakdown hands the basis to the primal phases, which still
//     decide infeasibility;
//   * the long-step ratio test flips several bounds in one iteration;
//   * its counters replay identically at any thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "oracles/oracles.h"
#include "proptest.h"
#include "solver/lp.h"

namespace pso {
namespace {

uint64_t CounterValue(const char* name) {
  return metrics::GetCounter(name).value();
}

// The lp.* counters one solve moves, read before and after it.
struct LpCounters {
  static constexpr const char* kNames[] = {
      "lp.pivots",           "lp.dual_iterations", "lp.phase1_iterations",
      "lp.phase2_iterations", "lp.bound_flips",     "lp.eta_updates",
      "lp.refactorizations", "lp.pivot_work"};
  uint64_t values[std::size(kNames)] = {};

  static LpCounters Now() {
    LpCounters c;
    for (size_t i = 0; i < std::size(kNames); ++i) {
      c.values[i] = CounterValue(kNames[i]);
    }
    return c;
  }
  LpCounters operator-(const LpCounters& before) const {
    LpCounters d;
    for (size_t i = 0; i < std::size(kNames); ++i) {
      d.values[i] = values[i] - before.values[i];
    }
    return d;
  }
  bool operator==(const LpCounters& o) const {
    for (size_t i = 0; i < std::size(kNames); ++i) {
      if (values[i] != o.values[i]) return false;
    }
    return true;
  }
  uint64_t dual() const { return values[1]; }
  uint64_t primal() const { return values[2] + values[3]; }
  uint64_t flips() const { return values[4]; }
};

enum class Answers { kExact, kBounded, kLaplace };

// The decoder's L1 fit over n secret bits and m = 5n random subset
// queries: minimize sum_j (u_j + v_j) s.t. <q_j, x> + u_j - v_j = a_j,
// x in [0,1]^n, with answers exact, off by up to 2 uniformly, or with
// Laplace(2) noise.
struct L1Fit {
  size_t n = 0;
  Answers answers = Answers::kExact;
  LpProblem lp;
};

L1Fit GenL1Fit(Rng& rng, size_t scale) {
  L1Fit fit;
  fit.n = 8 + static_cast<size_t>(rng.UniformUint64(scale + 1));
  fit.answers = static_cast<Answers>(rng.UniformUint64(3));
  std::vector<uint8_t> secret(fit.n);
  for (uint8_t& bit : secret) bit = rng.Bernoulli(0.5) ? 1 : 0;
  std::vector<size_t> x(fit.n);
  for (size_t i = 0; i < fit.n; ++i) x[i] = fit.lp.AddVariable(0.0, 1.0, 0.0);
  for (size_t j = 0; j < 5 * fit.n; ++j) {
    const size_t u = fit.lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    const size_t v = fit.lp.AddVariable(0.0, LpProblem::kInfinity, 1.0);
    std::vector<std::pair<size_t, double>> row;
    double answer = 0.0;
    for (size_t i = 0; i < fit.n; ++i) {
      if (!rng.Bernoulli(0.5)) continue;
      row.emplace_back(x[i], 1.0);
      answer += secret[i];
    }
    row.emplace_back(u, 1.0);
    row.emplace_back(v, -1.0);
    if (fit.answers == Answers::kBounded) {
      answer += 4.0 * rng.UniformDouble() - 2.0;
    } else if (fit.answers == Answers::kLaplace) {
      answer += rng.Laplace(2.0);
    }
    fit.lp.AddConstraint(row, Relation::kEqual, answer);
  }
  return fit;
}

TEST(DualPhaseTest, L1FitsMatchDenseOracleWithoutPrimalPivots) {
  proptest::Config cfg{/*master_seed=*/0xd1a1, /*iterations=*/60,
                       /*max_scale=*/16, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<L1Fit>(
      cfg, GenL1Fit, [](const L1Fit& fit) -> std::string {
        const LpCounters before = LpCounters::Now();
        Result<LpSolution> sparse = fit.lp.Solve();
        const LpCounters moved = LpCounters::Now() - before;
        if (!sparse.ok()) return "sparse: " + sparse.status().ToString();
        Result<LpSolution> dense = oracles::DenseSimplex(fit.lp);
        if (!dense.ok()) return "dense: " + dense.status().ToString();
        const std::string where = StrFormat(
            "n=%zu answers=%d", fit.n, static_cast<int>(fit.answers));
        if (std::fabs(sparse->objective - dense->objective) > 1e-6) {
          return StrFormat("%s: objective %.9g, dense oracle %.9g",
                           where.c_str(), sparse->objective,
                           dense->objective);
        }
        if (moved.primal() != 0 || moved.dual() != sparse->iterations) {
          return StrFormat("%s: %llu dual and %llu primal pivots",
                           where.c_str(), (unsigned long long)moved.dual(),
                           (unsigned long long)moved.primal());
        }
        return "";
      }));
}

// The value of `key` on the one span named `name`, or "" without one.
std::string SpanArg(const std::vector<trace::Event>& events,
                    const std::string& name, const std::string& key) {
  for (const trace::Event& e : events) {
    if (e.kind != trace::Event::Kind::kSpan || e.name != name) continue;
    for (const auto& [k, v] : e.args) {
      if (k == key) return v;
    }
  }
  return "";
}

// x, y in [0, 1] at costs 1 and 2 start dual feasible at their lower
// bounds, but x + y >= 3 cannot hold. The dual ratio test flips both and
// finds no column to enter, so the primal phases take over and report
// the infeasibility.
TEST(DualPhaseTest, InfeasibleLpHandsOverToThePrimalPhases) {
  LpProblem lp;
  const size_t x = lp.AddVariable(0.0, 1.0, 1.0);
  const size_t y = lp.AddVariable(0.0, 1.0, 2.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEq, 3.0);
  trace::Collector::Global().Enable(trace::Collector::kDefaultCapacity);
  Result<LpSolution> got = lp.Solve();
  const std::vector<trace::Event> events =
      trace::Collector::Global().TakeEvents();
  trace::Collector::Global().Disable();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(SpanArg(events, "lp.dual", "exit"), "no_breakpoint");
  EXPECT_EQ(SpanArg(events, "lp.dual", "pivots"), "0");
}

// min x1 + 2 x2 + 3 x3 s.t. x1 + x2 + x3 >= 2.5, x in [0, 1]: one dual
// iteration passes the breakpoints of x1 and x2 (flipping both to 1) and
// pivots on x3, landing on the optimum x = (1, 1, 0.5).
TEST(DualPhaseTest, OneIterationFlipsSeveralBounds) {
  LpProblem lp;
  const size_t x1 = lp.AddVariable(0.0, 1.0, 1.0);
  const size_t x2 = lp.AddVariable(0.0, 1.0, 2.0);
  const size_t x3 = lp.AddVariable(0.0, 1.0, 3.0);
  lp.AddConstraint({{x1, 1.0}, {x2, 1.0}, {x3, 1.0}}, Relation::kGreaterEq,
                   2.5);
  const LpCounters before = LpCounters::Now();
  Result<LpSolution> got = lp.Solve();
  const LpCounters moved = LpCounters::Now() - before;
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(moved.dual(), 1u);
  EXPECT_GE(moved.flips(), 2u);
  EXPECT_EQ(moved.primal(), 0u);
  EXPECT_NEAR(got->objective, 4.5, 1e-12);
  EXPECT_NEAR(got->values[x1], 1.0, 1e-12);
  EXPECT_NEAR(got->values[x2], 1.0, 1e-12);
  EXPECT_NEAR(got->values[x3], 0.5, 1e-12);
  Result<LpSolution> dense = oracles::DenseSimplex(lp);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_NEAR(got->objective, dense->objective, 1e-9);
}

// The same seeded L1 fits solved on a 1-thread and a 4-thread pool move
// every lp.* counter by the same amount and give bit-identical solutions.
TEST(DualPhaseTest, CountersIdenticalAtOneAndFourThreads) {
  constexpr size_t kFits = 8;
  std::vector<L1Fit> fits;
  for (size_t i = 0; i < kFits; ++i) {
    Rng rng = Rng::StreamAt(0xd1a2, i);
    fits.push_back(GenL1Fit(rng, /*scale=*/16));
  }
  const auto solve_all = [&](size_t threads, LpCounters* moved) {
    ThreadPool pool(threads);
    std::vector<std::vector<double>> values(kFits);
    const LpCounters before = LpCounters::Now();
    ParallelFor(
        &pool, kFits,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            Result<LpSolution> got = fits[i].lp.Solve();
            if (got.ok()) values[i] = got->values;
          }
        },
        /*chunk_size=*/1);
    *moved = LpCounters::Now() - before;
    return values;
  };
  LpCounters one;
  LpCounters four;
  const std::vector<std::vector<double>> serial = solve_all(1, &one);
  const std::vector<std::vector<double>> parallel = solve_all(4, &four);
  EXPECT_GT(one.dual(), 0u);
  EXPECT_TRUE(one == four);
  EXPECT_EQ(serial, parallel);
  for (const std::vector<double>& v : serial) EXPECT_FALSE(v.empty());
}

}  // namespace
}  // namespace pso
