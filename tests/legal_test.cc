// Tests for the legal-theorem layer (Section 2.4).

#include <gtest/gtest.h>

#include "legal/report.h"
#include "legal/verdict.h"

namespace pso::legal {
namespace {

PsoGameResult FakeGame(const std::string& mech, const std::string& adv,
                       size_t successes, size_t trials, double baseline) {
  PsoGameResult r;
  r.mechanism = mech;
  r.adversary = adv;
  r.n = 500;
  r.weight_threshold = 1.0 / 5000.0;
  for (size_t i = 0; i < trials; ++i) {
    r.pso_success.Add(i < successes);
    r.isolation.Add(i < successes);
  }
  r.baseline = baseline;
  r.advantage = r.pso_success.rate() - baseline;
  return r;
}

TEST(EvidenceTest, LargeAdvantageDemonstratesFailure) {
  Evidence e = EvidenceFromGame(FakeGame("Mondrian(k=5)", "KAnonHash",
                                         /*successes=*/74, /*trials=*/200,
                                         /*baseline=*/0.09));
  EXPECT_TRUE(e.demonstrates_failure);
  EXPECT_NEAR(e.attack_rate, 0.37, 1e-9);
}

TEST(EvidenceTest, BaselineLevelSuccessDoesNot) {
  Evidence e = EvidenceFromGame(
      FakeGame("M#q", "Trivial", 18, 200, 0.09));
  EXPECT_FALSE(e.demonstrates_failure);
}

TEST(EvidenceTest, SmallSampleHighRateNeedsCiSeparation) {
  // 3/5 success looks high but the Wilson lower bound is weak.
  Evidence e = EvidenceFromGame(FakeGame("X", "A", 3, 5, 0.2));
  EXPECT_FALSE(e.demonstrates_failure);
}

TEST(ClaimTest, FailingTechnologyGetsLegalTheorem) {
  std::vector<PsoGameResult> games = {
      FakeGame("Mondrian(k=5)", "Trivial", 10, 200, 0.09),
      FakeGame("Mondrian(k=5)", "KAnonHash", 74, 200, 0.09),
  };
  LegalClaim claim = EvaluateSinglingOutClaim("k-anonymity (Mondrian)",
                                              games);
  EXPECT_EQ(claim.verdict, Verdict::kFails);
  EXPECT_NE(claim.id.find("Legal Theorem 2.1"), std::string::npos);
  EXPECT_EQ(claim.evidence.size(), 2u);
  EXPECT_NE(claim.ToString().find("FAILS"), std::string::npos);
}

TEST(ClaimTest, ResistingTechnologyNeedsFurtherAnalysis) {
  std::vector<PsoGameResult> games = {
      FakeGame("Laplace(eps=1)", "Trivial", 15, 200, 0.09),
      FakeGame("Laplace(eps=1)", "CountTuned", 12, 200, 0.09),
  };
  LegalClaim claim =
      EvaluateSinglingOutClaim("differential privacy", games);
  EXPECT_EQ(claim.verdict, Verdict::kNeedsFurtherAnalysis);
}

TEST(CorollaryTest, FailurePropagatesToAnonymizationStandard) {
  LegalClaim fails = EvaluateSinglingOutClaim(
      "k-anonymity", {FakeGame("Datafly(k=5)", "KAnonHash", 74, 200, 0.09)});
  LegalClaim corollary = DeriveAnonymizationCorollary(fails);
  EXPECT_EQ(corollary.verdict, Verdict::kFails);
  EXPECT_NE(corollary.id.find("Legal Corollary 2.1"), std::string::npos);
  EXPECT_NE(corollary.statement.find("does not meet"), std::string::npos);
}

TEST(CorollaryTest, ResistancePropagatesAsOpen) {
  LegalClaim open = EvaluateSinglingOutClaim(
      "differential privacy",
      {FakeGame("Laplace(eps=1)", "Trivial", 10, 200, 0.09)});
  LegalClaim corollary = DeriveAnonymizationCorollary(open);
  EXPECT_EQ(corollary.verdict, Verdict::kNeedsFurtherAnalysis);
  EXPECT_NE(corollary.statement.find("further"), std::string::npos);
}

TEST(ReportTest, RenderIncludesAllClaims) {
  LegalReport report;
  report.AddClaim(EvaluateSinglingOutClaim(
      "k-anonymity", {FakeGame("Datafly", "KAnonHash", 74, 200, 0.09)}));
  report.AddClaim(EvaluateSinglingOutClaim(
      "differential privacy",
      {FakeGame("Laplace", "Trivial", 10, 200, 0.09)}));
  std::string text = report.Render();
  EXPECT_NE(text.find("k-anonymity"), std::string::npos);
  EXPECT_NE(text.find("differential privacy"), std::string::npos);
}

// Section 2.4.3: the Working Party's table vs ours. Their "No" for
// k-anonymity conflicts with our demonstrated attack; their "may not" for
// DP conflicts with no attack existing.
TEST(Article29Test, ConflictsMatchThePaper) {
  auto rows = LegalReport::Article29Comparison({
      {"k-anonymity", true},
      {"l-diversity", true},
      {"differential privacy", false},
  });
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].wp_opinion, "No");
  EXPECT_TRUE(rows[0].conflict);
  EXPECT_EQ(rows[1].wp_opinion, "No");
  EXPECT_TRUE(rows[1].conflict);
  EXPECT_EQ(rows[2].wp_opinion, "May not");
  EXPECT_TRUE(rows[2].conflict);
  std::string table = LegalReport::RenderArticle29Table(rows);
  EXPECT_NE(table.find("k-anonymity"), std::string::npos);
  EXPECT_NE(table.find("May not"), std::string::npos);
}

TEST(Article29Test, AgreementIsPossible) {
  // If an attack existed on DP, the WP's hedge would be vindicated.
  auto rows = LegalReport::Article29Comparison({
      {"differential privacy", true},
  });
  EXPECT_FALSE(rows[0].conflict);
}

TEST(VerdictNameTest, AllNamed) {
  EXPECT_STREQ(VerdictName(Verdict::kSatisfies), "SATISFIES");
  EXPECT_STREQ(VerdictName(Verdict::kFails), "FAILS");
  EXPECT_STREQ(VerdictName(Verdict::kNeedsFurtherAnalysis),
               "NEEDS FURTHER ANALYSIS");
}

}  // namespace
}  // namespace pso::legal
