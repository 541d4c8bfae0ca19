// Tests for the differential-privacy library (Definition 1.2, Theorem 1.3).

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "dp/accountant.h"
#include "dp/audit.h"
#include "dp/mechanisms.h"

namespace pso::dp {
namespace {

Schema BinarySchema() {
  return Schema({Attribute::Integer("trait", 0, 1)});
}

Dataset MakeBits(const std::vector<int64_t>& bits) {
  Dataset d{BinarySchema()};
  for (int64_t b : bits) d.Append({b});
  return d;
}

TEST(LaplaceCountTest, UnbiasedAndScaled) {
  Dataset d = MakeBits({1, 1, 1, 0, 0, 0, 0, 0, 0, 0});
  auto q = MakeAttributeEquals(0, 1, "trait");
  Rng rng(1);
  RunningStats stats;
  RunningStats error;  // |answer - 3|
  for (int i = 0; i < 20000; ++i) {
    const double answer = LaplaceCount(d, *q, /*eps=*/1.0, rng);
    stats.Add(answer);
    error.Add(std::fabs(answer - 3.0));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  // E|Lap(1/eps)| = 1/eps = 1.
  EXPECT_NEAR(error.mean(), 1.0, 0.05);
}

TEST(GeometricCountTest, IntegerValuedAndUnbiased) {
  Dataset d = MakeBits({1, 1, 0, 0});
  auto q = MakeAttributeEquals(0, 1, "trait");
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    int64_t v = GeometricCount(d, *q, 1.0, rng);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / 20000.0, 2.0, 0.05);
}

TEST(NoisyHistogramTest, ShapePreserved) {
  Schema s({Attribute::Integer("v", 0, 3)});
  Dataset d{s};
  for (int i = 0; i < 400; ++i) d.Append({i % 4 == 0 ? 0 : 1});
  Rng rng(4);
  std::vector<int64_t> hist = NoisyHistogram(d, 0, /*eps=*/2.0, rng);
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_NEAR(static_cast<double>(hist[0]), 100.0, 10.0);
  EXPECT_NEAR(static_cast<double>(hist[1]), 300.0, 10.0);
  EXPECT_NEAR(static_cast<double>(hist[2]), 0.0, 10.0);
}

TEST(AccountantTest, BasicCompositionAdds) {
  PrivacyAccountant acc;
  acc.Spend(0.5);
  acc.Spend(0.7, 1e-6);
  PrivacyGuarantee g = acc.BasicComposition();
  EXPECT_DOUBLE_EQ(g.eps, 1.2);
  EXPECT_DOUBLE_EQ(g.delta, 1e-6);
}

TEST(AccountantTest, AdvancedBeatsBasicForManySmallReleases) {
  PrivacyAccountant acc;
  for (int i = 0; i < 400; ++i) acc.Spend(0.05);
  PrivacyGuarantee basic = acc.BasicComposition();
  PrivacyGuarantee advanced = acc.AdvancedComposition(1e-6);
  EXPECT_LT(advanced.eps, basic.eps);
  EXPECT_NEAR(basic.eps, 20.0, 1e-9);
  PrivacyGuarantee best = acc.BestBound(1e-6);
  EXPECT_DOUBLE_EQ(best.eps, advanced.eps);
}

TEST(AccountantTest, BasicBeatsAdvancedForFewReleases) {
  PrivacyAccountant acc;
  acc.Spend(1.0);
  PrivacyGuarantee best = acc.BestBound(1e-6);
  EXPECT_DOUBLE_EQ(best.eps, 1.0);
  EXPECT_DOUBLE_EQ(best.delta, 0.0);
}

TEST(AccountantTest, EmptyLedger) {
  PrivacyAccountant acc;
  EXPECT_DOUBLE_EQ(acc.BasicComposition().eps, 0.0);
  EXPECT_DOUBLE_EQ(acc.AdvancedComposition(0.01).eps, 0.0);
}

// Definition 1.2 verified empirically: the Laplace count's measured
// privacy loss must not exceed eps (up to sampling slack), while the exact
// count's loss is effectively unbounded.
TEST(AuditTest, LaplaceCountWithinBudget) {
  const double eps = 1.0;
  // Neighboring datasets: counts 5 vs 6.
  BucketizedMechanism mech = [eps](int which, Rng& rng) {
    double count = which == 0 ? 5.0 : 6.0;
    double y = count + rng.Laplace(1.0 / eps);
    return static_cast<int64_t>(std::floor(y * 2.0));  // buckets of 0.5
  };
  Rng rng(7);
  AuditResult audit = AuditPrivacyLoss(mech, 400000, rng, 200);
  EXPECT_GT(audit.buckets_compared, 5u);
  // Measured loss must be near (and statistically never far above) eps.
  EXPECT_LT(audit.empirical_eps, eps * 1.2);
  // And the mechanism is not trivially private: some loss is visible.
  EXPECT_GT(audit.empirical_eps, eps * 0.3);
}

TEST(AuditTest, ExactCountHasUnboundedLoss) {
  BucketizedMechanism mech = [](int which, Rng&) {
    return static_cast<int64_t>(which == 0 ? 5 : 6);
  };
  Rng rng(8);
  AuditResult audit = AuditPrivacyLoss(mech, 10000, rng, 20);
  // Disjoint supports: no shared bucket clears min_support, so nothing is
  // comparable — the right reading is "no finite eps certified".
  EXPECT_EQ(audit.buckets_compared, 0u);
}

TEST(AuditTest, RandomizedResponseLossMatchesEps) {
  const double eps = 1.5;
  double keep = std::exp(eps) / (1.0 + std::exp(eps));
  BucketizedMechanism mech = [keep](int which, Rng& rng) {
    int64_t bit = which;  // neighboring "datasets": the single bit flips
    return rng.Bernoulli(keep) ? bit : 1 - bit;
  };
  Rng rng(9);
  AuditResult audit = AuditPrivacyLoss(mech, 300000, rng, 100);
  // RR on one bit realizes exactly eps loss.
  EXPECT_NEAR(audit.empirical_eps, eps, 0.05);
}

// Property sweep: geometric noise symmetric for a range of eps.
class GeometricEpsTest : public ::testing::TestWithParam<double> {};

TEST_P(GeometricEpsTest, MeanZeroNoise) {
  double eps = GetParam();
  Rng rng(11);
  double sum = 0.0;
  const int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i) {
    sum += static_cast<double>(GeometricValue(0, eps, rng));
  }
  double sd = std::sqrt(2.0 * std::exp(-eps)) / (1.0 - std::exp(-eps));
  EXPECT_NEAR(sum / kTrials, 0.0,
              5.0 * sd / std::sqrt(static_cast<double>(kTrials)));
}

INSTANTIATE_TEST_SUITE_P(Eps, GeometricEpsTest,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0));

}  // namespace
}  // namespace pso::dp
