// Binary LP-instance codec: round-trip property, every decoder
// rejection path, and the solver-facing build_status contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "oracles/lp_io.h"
#include "oracles/oracles.h"
#include "proptest.h"
#include "solver/lp.h"

namespace pso {
namespace {

LpInstance SampleInstance() {
  LpInstance inst;
  inst.variables.push_back({0.0, 1.0, 2.0});
  inst.variables.push_back({-1.0, LpProblem::kInfinity, -0.5});
  LpInstance::Row row;
  row.coeffs = {{0, 1.0}, {1, 2.0}};
  row.rel = Relation::kGreaterEq;
  row.rhs = 0.5;
  inst.rows.push_back(row);
  return inst;
}

TEST(LpIoTest, EncodeDecodeRoundTripsSample) {
  LpInstance inst = SampleInstance();
  Result<LpInstance> again = DecodeLpInstance(EncodeLpInstance(inst));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->variables.size(), 2u);
  EXPECT_EQ(again->variables[1].lower, -1.0);
  EXPECT_TRUE(std::isinf(again->variables[1].upper));
  ASSERT_EQ(again->rows.size(), 1u);
  EXPECT_EQ(again->rows[0].rel, Relation::kGreaterEq);
  EXPECT_EQ(again->rows[0].coeffs, inst.rows[0].coeffs);
}

TEST(LpIoTest, DecodedInstanceSolves) {
  // min 2a - b/2  s.t.  a + 2b >= 1/2, a in [0,1], b in [-1, 2].
  LpInstance inst;
  inst.variables.push_back({0.0, 1.0, 2.0});
  inst.variables.push_back({-1.0, 2.0, -0.5});
  inst.rows.push_back({{{0, 1.0}, {1, 2.0}}, Relation::kGreaterEq, 0.5});
  Result<LpInstance> decoded = DecodeLpInstance(EncodeLpInstance(inst));
  ASSERT_TRUE(decoded.ok());
  LpProblem lp = ToProblem(*decoded);
  EXPECT_TRUE(lp.build_status().ok());
  Result<LpSolution> sol = lp.Solve();
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->objective, 2.0 * 0.0 - 0.5 * 2.0, 1e-9);
}

TEST(LpIoTest, RejectsBadMagicAndTruncation) {
  std::string good = EncodeLpInstance(SampleInstance());

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeLpInstance(bad_magic).ok());

  // Every proper prefix must be rejected as truncated, never crash.
  for (size_t len = 0; len < good.size(); ++len) {
    Result<LpInstance> r = DecodeLpInstance(good.substr(0, len));
    EXPECT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix";
  }

  std::string trailing = good + "junk";
  EXPECT_FALSE(DecodeLpInstance(trailing).ok());
}

TEST(LpIoTest, RejectsSemanticGarbage) {
  // NaN cost.
  LpInstance nan_cost = SampleInstance();
  nan_cost.variables[0].cost = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DecodeLpInstance(EncodeLpInstance(nan_cost)).ok());

  // Empty bounds.
  LpInstance empty_bounds = SampleInstance();
  empty_bounds.variables[0].lower = 2.0;
  empty_bounds.variables[0].upper = 1.0;
  EXPECT_FALSE(DecodeLpInstance(EncodeLpInstance(empty_bounds)).ok());

  // Out-of-range coefficient index.
  LpInstance bad_index = SampleInstance();
  bad_index.rows[0].coeffs[0].first = 7;
  EXPECT_FALSE(DecodeLpInstance(EncodeLpInstance(bad_index)).ok());

  // Cap violation in the header.
  std::string oversized("PSOLP1", 6);
  uint32_t vars = kLpInstanceMaxVars + 1;
  uint32_t rows = 0;
  oversized.append(reinterpret_cast<const char*>(&vars), 4);
  oversized.append(reinterpret_cast<const char*>(&rows), 4);
  EXPECT_FALSE(DecodeLpInstance(oversized).ok());
}

// min x s.t. x >= 2.5, x in [lower, 10]. Optimum 2.5.
LpInstance BoxedFloor(double lower) {
  LpInstance inst;
  inst.variables.push_back({lower, 10.0, 1.0});
  inst.rows.push_back({{{0, 1.0}}, Relation::kGreaterEq, 2.5});
  return inst;
}

// min -x0 - x1 s.t. 1.0625 x0 + 1.00018 x1 <= 7, x0 >= 0, x1 >= lower.
// Optimum -7 / 1.00018, at x0 = 0.
LpInstance TiltedRow(double lower) {
  LpInstance inst;
  inst.variables.push_back({0.0, LpProblem::kInfinity, -1.0});
  inst.variables.push_back({lower, LpProblem::kInfinity, -1.0});
  inst.rows.push_back(
      {{{0, 1.0625}, {1, 1.00018}}, Relation::kLessEq, 7.0});
  return inst;
}

// With lower bounds of -4.46e43 and -7.23e221 these two instances made
// the engines miss their optimum (the dense oracle returned 0 on the
// first; on the second the sparse engine returned 0 and the oracle
// 8.0e205), because each engine shifts a variable by its bound. Finite
// bounds beyond kMaxMagnitude are InvalidArgument for the decoder and
// the builder alike; at kMaxMagnitude both engines find the optimum.
TEST(LpIoTest, HugeFiniteBoundsAreRejected) {
  const LpInstance huge[] = {BoxedFloor(-4.46e43), TiltedRow(-7.23e221),
                             BoxedFloor(-2 * LpProblem::kMaxMagnitude)};
  for (const LpInstance& inst : huge) {
    Result<LpInstance> decoded = DecodeLpInstance(EncodeLpInstance(inst));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    LpProblem lp = ToProblem(inst);
    EXPECT_EQ(lp.build_status().code(), StatusCode::kInvalidArgument);
  }
  LpInstance huge_upper = TiltedRow(0.0);
  huge_upper.variables[0].upper = 1e300;
  EXPECT_FALSE(DecodeLpInstance(EncodeLpInstance(huge_upper)).ok());
  EXPECT_FALSE(ToProblem(huge_upper).build_status().ok());

  const double lower = -LpProblem::kMaxMagnitude;
  const std::pair<LpInstance, double> at_cap[] = {
      {BoxedFloor(lower), 2.5}, {TiltedRow(lower), -7.0 / 1.00018}};
  for (const auto& [inst, optimum] : at_cap) {
    Result<LpInstance> decoded = DecodeLpInstance(EncodeLpInstance(inst));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    LpProblem lp = ToProblem(*decoded);
    ASSERT_TRUE(lp.build_status().ok());
    for (const oracles::LpEngine& engine : oracles::kLpEngines) {
      Result<LpSolution> sol = engine.solve(lp);
      ASSERT_TRUE(sol.ok()) << engine.name << ": " << sol.status().ToString();
      EXPECT_NEAR(sol->objective, optimum, 1e-4 * std::fabs(optimum))
          << engine.name;
    }
  }
}

// Rejected by the decoder and the builder alike, with the same status.
void ExpectRejected(const LpInstance& inst) {
  Result<LpInstance> decoded = DecodeLpInstance(EncodeLpInstance(inst));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ToProblem(inst).build_status().code(),
            StatusCode::kInvalidArgument);
}

// The two fuzz_lp_decode crash inputs (seeds fuzz/corpus/fuzz_lp_decode/
// huge_coeff_tiny_upper.bin and tiny_bounds_huge_cost.bin), on which the
// sparse engine and the dense oracle disagreed:
//  - min 1.0625 x s.t. 4.37e245 x >= 2.5, x in [0, 5.56e-308] is
//    infeasible, yet the sparse engine returned x = 5.56e-308;
//  - min -3.1e231 x s.t. x <= -1.54e-196, x in [2e-323, 2.75e-135] is
//    infeasible, yet the engines returned different points.
// Each has values outside [kMinMagnitude, kMaxMagnitude], so both are
// InvalidArgument now. Zero stays legal everywhere, and so does a tiny
// right-hand side.
TEST(LpIoTest, ValuesOutsideTheMagnitudeRangeAreRejected) {
  LpInstance huge_coeff;
  huge_coeff.variables.push_back({0.0, 5.562684646268003e-308, 1.0625});
  huge_coeff.rows.push_back(
      {{{0, 4.3699499387321413e+245}}, Relation::kGreaterEq, 2.5});
  ExpectRejected(huge_coeff);
  LpInstance tiny_bounds;
  tiny_bounds.variables.push_back(
      {2e-323, 2.752069793427266e-135, -3.105036184601462e+231});
  tiny_bounds.rows.push_back(
      {{{0, 1.0}}, Relation::kLessEq, -1.5394855361410988e-196});
  ExpectRejected(tiny_bounds);

  const double below = LpProblem::kMinMagnitude / 2;
  const double above = LpProblem::kMaxMagnitude * 2;
  for (double bad : {below, -below, above, -above,
                     std::numeric_limits<double>::infinity()}) {
    LpInstance coeff = SampleInstance();
    coeff.rows[0].coeffs[1].second = bad;
    ExpectRejected(coeff);
    LpInstance cost = SampleInstance();
    cost.variables[1].cost = bad;
    ExpectRejected(cost);
    if (std::isfinite(bad)) {
      LpInstance upper = SampleInstance();
      upper.variables[0].upper = std::fabs(bad);
      ExpectRejected(upper);
    }
  }

  // At the edges of the range, zeros and a tiny rhs: accepted, and both
  // engines agree on the optimum.
  LpInstance edges;
  edges.variables.push_back(
      {LpProblem::kMinMagnitude, LpProblem::kMaxMagnitude, 1.0});
  edges.variables.push_back({0.0, 1.0, -1.0});
  edges.variables.push_back({-1.0, 0.0, 0.0});
  edges.rows.push_back({{{0, LpProblem::kMaxMagnitude},
                         {1, LpProblem::kMinMagnitude},
                         {2, 0.0}},
                        Relation::kGreaterEq, 1e-300});
  Result<LpInstance> decoded = DecodeLpInstance(EncodeLpInstance(edges));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  LpProblem lp = ToProblem(*decoded);
  ASSERT_TRUE(lp.build_status().ok()) << lp.build_status().ToString();
  for (const oracles::LpEngine& engine : oracles::kLpEngines) {
    Result<LpSolution> sol = engine.solve(lp);
    ASSERT_TRUE(sol.ok()) << engine.name << ": " << sol.status().ToString();
    // x0 at its lower bound 1e-9 and x1 = 1 are optimal.
    EXPECT_NEAR(sol->objective, LpProblem::kMinMagnitude - 1.0, 1e-12)
        << engine.name;
  }
}

// Three more fuzz_lp_decode finds, with every value inside [1e-9, 1e9]
// (seeds dup_near_cancel.bin, near_infeasible_small_coeff.bin and
// shallow_ray.bin):
//  - a row listing x0 twice, as 1.00000003·x0 and −1·x0, is a 3e-8
//    coefficient once the engines sum it; the sparse engine called
//    min −x0 + 2·x1 s.t. that row <= 1 Unbounded, the dense one returned
//    0. The sum is now held to the range, so it is rejected, while an
//    exact cancellation to 0 stays legal.
//  - min x s.t. 0.25·x >= 2.50000095, x in [0, 10] is infeasible by
//    9.5e-7, within both engines' tolerance; the dense oracle returned
//    x = 10.0000038, past the bound, and now returns x = 10 like the
//    sparse engine.
//  - min −1.0000000029·x0 + 2·x1 s.t. 0.5·x0 − x1 <= 1.00006, x >= 0 is
//    unbounded along x1 = x0 / 2, which improves by 2.9e-9 per unit; the
//    dense oracle called it optimal, and now agrees: Unbounded.
TEST(LpIoTest, RepeatedVariablesAndToleranceLevelEdges) {
  LpInstance near_cancel;
  near_cancel.variables.push_back({0.0, LpProblem::kInfinity, -1.0});
  near_cancel.variables.push_back({0.0, LpProblem::kInfinity, 2.0});
  near_cancel.rows.push_back(
      {{{0, 1.0000000298023224}, {0, -1.0}}, Relation::kLessEq, 1.0});
  ExpectRejected(near_cancel);
  LpInstance exact_cancel = near_cancel;
  exact_cancel.rows[0].coeffs[0].second = 1.0;
  EXPECT_TRUE(DecodeLpInstance(EncodeLpInstance(exact_cancel)).ok());
  EXPECT_TRUE(ToProblem(exact_cancel).build_status().ok());

  LpInstance near_infeasible;
  near_infeasible.variables.push_back({0.0, 10.0, 1.0});
  near_infeasible.rows.push_back(
      {{{0, 0.25}}, Relation::kGreaterEq, 2.5000009536743164});
  LpProblem lp = ToProblem(near_infeasible);
  ASSERT_TRUE(lp.build_status().ok());
  for (const oracles::LpEngine& engine : oracles::kLpEngines) {
    Result<LpSolution> sol = engine.solve(lp);
    ASSERT_TRUE(sol.ok()) << engine.name << ": " << sol.status().ToString();
    EXPECT_LE(sol->values[0], 10.0) << engine.name;
    EXPECT_NEAR(sol->objective, 10.0, 1e-9) << engine.name;
  }

  LpInstance shallow_ray;
  shallow_ray.variables.push_back(
      {0.0, LpProblem::kInfinity, -1.0000000029394869});
  shallow_ray.variables.push_back({0.0, LpProblem::kInfinity, 2.0});
  shallow_ray.rows.push_back(
      {{{0, 0.5}, {1, -1.0}}, Relation::kLessEq, 1.00006103515625});
  LpProblem ray = ToProblem(shallow_ray);
  ASSERT_TRUE(ray.build_status().ok());
  for (const oracles::LpEngine& engine : oracles::kLpEngines) {
    EXPECT_EQ(engine.solve(ray).status().code(), StatusCode::kUnbounded)
        << engine.name;
  }
}

TEST(LpIoTest, MalformedBuilderInputPoisonsSolveWithStatus) {
  LpProblem lp;
  lp.AddVariable(1.0, 0.0, 0.0);  // empty bounds
  EXPECT_FALSE(lp.build_status().ok());
  Result<LpSolution> sol = lp.Solve();
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInvalidArgument);

  LpProblem lp2;
  size_t x = lp2.AddVariable(0.0, 1.0, 1.0);
  lp2.AddConstraint({{x + 5, 1.0}}, Relation::kLessEq, 1.0);  // unknown var
  EXPECT_FALSE(lp2.Solve().ok());
}

// Round-trip property on random well-formed instances (pinned seeds).
TEST(LpIoRoundTripTest, EncodeThenDecodeIsIdentity) {
  proptest::Config cfg{/*master_seed=*/0xabc123, /*iterations=*/150,
                       /*max_scale=*/8, /*min_scale=*/1};
  EXPECT_TRUE(proptest::ForAll<LpInstance>(
      cfg,
      [](Rng& rng, size_t scale) {
        LpInstance inst;
        size_t n = 1 + static_cast<size_t>(rng.UniformUint64(2 * scale));
        for (size_t i = 0; i < n; ++i) {
          LpInstance::Variable v;
          v.lower = rng.UniformDouble() * 10 - 5;
          v.upper = rng.Bernoulli(0.2)
                        ? LpProblem::kInfinity
                        : v.lower + rng.UniformDouble() * 10;
          v.cost = rng.UniformDouble() * 4 - 2;
          inst.variables.push_back(v);
        }
        size_t m = static_cast<size_t>(rng.UniformUint64(scale + 1));
        for (size_t r = 0; r < m; ++r) {
          LpInstance::Row row;
          for (size_t i = 0; i < n; ++i) {
            if (rng.Bernoulli(0.5)) {
              row.coeffs.emplace_back(i, rng.UniformDouble() * 6 - 3);
            }
          }
          row.rel = static_cast<Relation>(rng.UniformUint64(3));
          row.rhs = rng.UniformDouble() * 8 - 4;
          inst.rows.push_back(std::move(row));
        }
        return inst;
      },
      [](const LpInstance& inst) -> std::string {
        Result<LpInstance> again = DecodeLpInstance(EncodeLpInstance(inst));
        if (!again.ok()) {
          return "round trip rejected: " + again.status().ToString();
        }
        if (again->variables.size() != inst.variables.size() ||
            again->rows.size() != inst.rows.size()) {
          return "round trip changed the shape";
        }
        for (size_t i = 0; i < inst.variables.size(); ++i) {
          if (std::memcmp(&again->variables[i], &inst.variables[i],
                          sizeof(LpInstance::Variable)) != 0) {
            return "round trip changed a variable";
          }
        }
        for (size_t r = 0; r < inst.rows.size(); ++r) {
          if (again->rows[r].rel != inst.rows[r].rel ||
              again->rows[r].rhs != inst.rows[r].rhs ||
              again->rows[r].coeffs != inst.rows[r].coeffs) {
            return "round trip changed a row";
          }
        }
        return "";
      }));
}

}  // namespace
}  // namespace pso
