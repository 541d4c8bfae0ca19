// Tests for the interactive query-session layer.

#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.h"
#include "pso/game.h"
#include "pso/interactive.h"

namespace pso {
namespace {

TEST(SessionTest, ExactCountsAreExact) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(1);
  Dataset x = u.distribution.SampleDataset(100, rng);
  auto mech = MakeExactCountSessionMechanism();
  auto session = mech->StartSession(x, rng);
  auto q = MakeAttributeEquals(3, 0, "sex");
  double answer = session->AnswerCount(*q);
  EXPECT_DOUBLE_EQ(answer, static_cast<double>(CountMatches(*q, x)));
  EXPECT_EQ(session->queries_answered(), 1u);
  EXPECT_TRUE(std::isinf(session->PrivacySpent().eps));
}

TEST(SessionTest, LaplaceSessionTracksBudget) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(2);
  Dataset x = u.distribution.SampleDataset(100, rng);
  auto mech = MakeLaplaceCountSessionMechanism(0.5);
  auto session = mech->StartSession(x, rng);
  auto q = MakeAttributeEquals(3, 0, "sex");
  for (int i = 0; i < 4; ++i) session->AnswerCount(*q);
  EXPECT_EQ(session->queries_answered(), 4u);
  // 4 queries at eps 0.5: basic composition gives 2.0 (advanced is worse
  // at this k).
  EXPECT_NEAR(session->PrivacySpent().eps, 2.0, 1e-9);
}

TEST(SessionTest, LaplaceAnswersAreNoisy) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(3);
  Dataset x = u.distribution.SampleDataset(100, rng);
  auto mech = MakeLaplaceCountSessionMechanism(1.0);
  auto session = mech->StartSession(x, rng);
  auto q = MakeAttributeEquals(3, 0, "sex");
  double truth = static_cast<double>(CountMatches(*q, x));
  bool saw_noise = false;
  for (int i = 0; i < 10; ++i) {
    if (std::fabs(session->AnswerCount(*q) - truth) > 1e-9) saw_noise = true;
  }
  EXPECT_TRUE(saw_noise);
}

TEST(SessionTest, QueryBudgetRefusesAfterLimit) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(4);
  Dataset x = u.distribution.SampleDataset(50, rng);
  auto mech = MakeLaplaceCountSessionMechanism(1.0, /*max_queries=*/3);
  auto session = mech->StartSession(x, rng);
  auto q = MakeAttributeEquals(3, 0, "sex");
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(std::isnan(session->AnswerCount(*q)));
  EXPECT_TRUE(std::isnan(session->AnswerCount(*q)));
  EXPECT_EQ(session->queries_answered(), 3u);
}

// The interactive face of Theorems 2.8 vs 2.9: exact count sessions fall
// to the binary-search attacker; per-query Laplace noise stops it.
TEST(InteractiveGameTest, ExactSessionFallsNoisySessionResists) {
  Universe u = MakeGicMedicalUniverse(100);
  PsoGameOptions opts;
  opts.trials = 60;
  opts.weight_pool = 60000;
  PsoGame game(u.distribution, 300, opts);
  auto adversary = MakeBinarySearchIsolationAdversary(200);

  auto exact =
      game.RunInteractive(*MakeExactCountSessionMechanism(), *adversary);
  EXPECT_GT(exact.pso_success.rate(), 0.9) << exact.Summary();

  auto noisy = game.RunInteractive(
      *MakeLaplaceCountSessionMechanism(/*eps_per_query=*/0.5), *adversary);
  EXPECT_LT(noisy.pso_success.rate(), noisy.baseline + 0.07)
      << noisy.Summary();
  EXPECT_GT(exact.pso_success.rate(), noisy.pso_success.rate() + 0.5);
}

TEST(InteractiveGameTest, DeterministicGivenSeed) {
  Universe u = MakeGicMedicalUniverse(100);
  PsoGameOptions opts;
  opts.trials = 20;
  opts.weight_pool = 20000;
  auto adversary = MakeBinarySearchIsolationAdversary(100);
  PsoGame g1(u.distribution, 200, opts);
  PsoGame g2(u.distribution, 200, opts);
  auto r1 = g1.RunInteractive(*MakeExactCountSessionMechanism(), *adversary);
  auto r2 = g2.RunInteractive(*MakeExactCountSessionMechanism(), *adversary);
  EXPECT_EQ(r1.pso_success.rate(), r2.pso_success.rate());
}

}  // namespace
}  // namespace pso
