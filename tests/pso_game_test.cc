// Tests for the PSO game runner (Definitions 2.3/2.4).

#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.h"
#include "pso/adversaries.h"
#include "pso/game.h"
#include "pso/mechanisms.h"

namespace pso {
namespace {

PsoGameOptions FastOptions(size_t trials = 60) {
  PsoGameOptions opts;
  opts.trials = trials;
  opts.weight_pool = 30000;
  opts.seed = 42;
  return opts;
}

// The threshold in force, as a run reports it.
double ThresholdInForce(const Universe& u, PsoGameOptions opts) {
  opts.trials = 1;
  PsoGame game(u.distribution, 365, opts);
  auto mech = MakeCountMechanism(MakeAttributeEquals(0, 0, "birthday"),
                                 "jan1");
  return game.Run(*mech, *MakeTrivialHashAdversary(1e-3)).weight_threshold;
}

TEST(PsoGameTest, DefaultThresholdIsOneOverTenN) {
  Universe u = MakeBirthdayUniverse();
  EXPECT_DOUBLE_EQ(ThresholdInForce(u, FastOptions()), 1.0 / 3650.0);
}

TEST(PsoGameTest, ExplicitThresholdHonored) {
  Universe u = MakeBirthdayUniverse();
  PsoGameOptions opts = FastOptions();
  opts.weight_threshold = 1e-3;
  EXPECT_DOUBLE_EQ(ThresholdInForce(u, opts), 1e-3);
}

TEST(PsoGameTest, DeterministicAcrossRuns) {
  Universe u = MakeBirthdayUniverse();
  auto mech = MakeCountMechanism(MakeAttributeEquals(0, 0, "birthday"),
                                 "jan1");
  auto adv = MakeTrivialHashAdversary(1.0 / 3650.0);
  PsoGame g1(u.distribution, 100, FastOptions());
  PsoGame g2(u.distribution, 100, FastOptions());
  auto r1 = g1.Run(*mech, *adv);
  auto r2 = g2.Run(*mech, *adv);
  EXPECT_EQ(r1.pso_success.rate(), r2.pso_success.rate());
  EXPECT_EQ(r1.isolation.rate(), r2.isolation.rate());
}

TEST(PsoGameTest, VerifiedWeightExactPath) {
  Universe u = MakeBirthdayUniverse();
  PsoGame game(u.distribution, 365, FastOptions());
  auto p = MakeAttributeEquals(0, 5, "birthday");
  EXPECT_NEAR(game.VerifiedWeightUpperBound(*p), 1.0 / 365.0, 1e-12);
}

TEST(PsoGameTest, VerifiedWeightMonteCarloPathIsUpperBound) {
  Universe u = MakeGicMedicalUniverse(100);
  PsoGame game(u.distribution, 100, FastOptions());
  Rng rng(1);
  UniversalHash h(rng, 1000);
  auto p = MakeHashPredicate(u.schema, h, 0);
  double bound = game.VerifiedWeightUpperBound(*p);
  EXPECT_GT(bound, 0.0005);  // at least near the true 1e-3
  EXPECT_LT(bound, 0.01);    // but a sane upper bound
}

// The birthday example (Section 2.2): a fixed-date attacker against any
// mechanism isolates ~37% of the time, but its predicate weight 1/365 is
// NOT negligible at threshold 1/3650 — so it scores zero PSO successes.
TEST(PsoGameTest, BirthdayAttackerIsolatesButWeightTooHeavy) {
  Universe u = MakeBirthdayUniverse();
  auto mech = MakeCountMechanism(MakeAttributeEquals(0, 0, "birthday"),
                                 "jan1");
  auto adv = MakeFixedValueAdversary(0, 119, "birthday");  // "Apr-30"
  PsoGame game(u.distribution, 365, FastOptions(400));
  auto result = game.Run(*mech, *adv);
  EXPECT_NEAR(result.isolation.rate(), 0.37, 0.08);
  EXPECT_EQ(result.pso_success.rate(), 0.0);  // weight check fails
  // Every trial verifies the same predicate, of exact weight 1/365.
  EXPECT_DOUBLE_EQ(result.weights.mean(), 1.0 / 365.0);
}

// Identity mechanism is blatantly not PSO-secure: the unique-record
// adversary reads x and outputs an exact-match predicate of negligible
// weight.
TEST(PsoGameTest, IdentityMechanismFails) {
  Universe u = MakeGicMedicalUniverse(100);
  auto mech = MakeIdentityMechanism();
  auto adv = MakeUniqueRecordAdversary();
  PsoGame game(u.distribution, 200, FastOptions());
  auto result = game.Run(*mech, *adv);
  EXPECT_GT(result.pso_success.rate(), 0.95);
  EXPECT_GT(result.advantage, 0.9);
}

// Theorem 2.5: the count mechanism prevents PSO — tested attackers stay at
// (or below) the trivial baseline.
TEST(PsoGameTest, CountMechanismResistsAttackers) {
  Universe u = MakeGicMedicalUniverse(100);
  auto q = MakeAttributeEquals(3, 0, "sex");
  auto mech = MakeCountMechanism(q, "sex=F");
  PsoGame game(u.distribution, 500, FastOptions(300));

  for (const AdversaryRef& adv :
       {MakeTrivialHashAdversary(1.0 / 5000.0),
        MakeCountTunedAdversary(q, "sex=F")}) {
    auto result = game.Run(*mech, *adv);
    // Success within a few points of the baseline (never far above).
    EXPECT_LT(result.pso_success.rate(), result.baseline + 0.08)
        << result.Summary();
  }
}

// Theorem 2.6: post-processing cannot create PSO risk. f(M(x)) with the
// same adversary family scores the same or less.
TEST(PsoGameTest, PostProcessingNoWorse) {
  Universe u = MakeGicMedicalUniverse(100);
  auto q = MakeAttributeEquals(3, 0, "sex");
  auto inner = MakeCountMechanism(q, "sex=F");
  // f maps the count to its parity — strictly less informative.
  auto f = [](const MechanismOutput& y) {
    const double* c = y.As<double>();
    if (c == nullptr) return MechanismOutput();
    return MechanismOutput::Of(
        static_cast<double>(static_cast<int64_t>(*c) % 2));
  };
  auto mech = MakePostProcessMechanism(inner, f, "parity");
  EXPECT_NE(mech->Name().find("parity"), std::string::npos);
  auto adv = MakeCountTunedAdversary(q, "sex=F");
  PsoGame game(u.distribution, 400, FastOptions(150));
  auto result = game.Run(*mech, *adv);
  EXPECT_LT(result.pso_success.rate(), result.baseline + 0.08);
}

// The baseline in the result matches the closed form.
TEST(PsoGameTest, BaselineMatchesClosedForm) {
  Universe u = MakeBirthdayUniverse();
  PsoGame game(u.distribution, 365, FastOptions(10));
  auto mech = MakeIdentityMechanism();
  auto adv = MakeTrivialHashAdversary(0.5);
  auto result = game.Run(*mech, *adv);
  double tau = 1.0 / 3650.0;
  EXPECT_NEAR(result.baseline, 365.0 * tau * std::pow(1.0 - tau, 364.0),
              1e-12);
}

// A trivial attacker playing exactly at the threshold achieves exactly the
// baseline (sanity of the finite-n reading of "negligible").
TEST(PsoGameTest, TrivialAttackerMatchesBaseline) {
  Universe u = MakeGicMedicalUniverse(100);
  auto mech = MakeCountMechanism(MakeAttributeEquals(3, 0, "sex"), "q");
  PsoGameOptions opts = FastOptions(500);
  opts.weight_threshold = 1.0 / 500.0;  // = 1/n: the sweet spot
  PsoGame game(u.distribution, 500, opts);
  auto adv = MakeTrivialHashAdversary(1.0 / 500.0);
  auto result = game.Run(*mech, *adv);
  // Isolation rate ~ 1/e; some trials may fail the Monte-Carlo weight
  // check at the boundary, so compare isolation (not PSO rate) to the
  // curve.
  EXPECT_NEAR(result.isolation.rate(), std::exp(-1.0), 0.07);
}

TEST(PsoGameTest, SummaryMentionsNames) {
  Universe u = MakeBirthdayUniverse();
  PsoGame game(u.distribution, 50, FastOptions(5));
  auto mech = MakeIdentityMechanism();
  auto adv = MakeUniqueRecordAdversary();
  auto result = game.Run(*mech, *adv);
  EXPECT_NE(result.Summary().find("Identity"), std::string::npos);
  EXPECT_NE(result.Summary().find("UniqueRecord"), std::string::npos);
}

}  // namespace
}  // namespace pso
