// Tests for the exponential mechanism and DP quantiles.

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "dp/exponential.h"

namespace pso::dp {
namespace {

Schema ValueSchema(int64_t lo, int64_t hi) {
  return Schema({Attribute::Integer("v", lo, hi)});
}

TEST(ExponentialMechanismTest, PrefersHighScores) {
  Rng rng(1);
  std::vector<double> scores = {0.0, 0.0, 10.0, 0.0};
  int best = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    if (ExponentialMechanism(scores, /*eps=*/2.0, 1.0, rng) == 2) ++best;
  }
  EXPECT_GT(best / static_cast<double>(kTrials), 0.95);
}

TEST(ExponentialMechanismTest, RatioMatchesDefinition) {
  // Two candidates with score gap g: selection odds should be
  // ~ exp(eps * g / 2).
  Rng rng(2);
  const double eps = 1.0;
  const double gap = 2.0;
  std::vector<double> scores = {gap, 0.0};
  int first = 0;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    if (ExponentialMechanism(scores, eps, 1.0, rng) == 0) ++first;
  }
  double odds = static_cast<double>(first) /
                static_cast<double>(kTrials - first);
  EXPECT_NEAR(odds, std::exp(eps * gap / 2.0), 0.15);
}

TEST(ExponentialMechanismTest, UniformScoresUniformSelection) {
  Rng rng(3);
  std::vector<double> scores(5, 1.0);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[ExponentialMechanism(scores, 1.0, 1.0, rng)];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(ExponentialMechanismTest, NumericallyStableWithHugeScores) {
  Rng rng(4);
  std::vector<double> scores = {1e6, 1e6 - 1.0};
  // Must not produce NaN/infinite weights; both should be selectable.
  int second = 0;
  for (int i = 0; i < 10000; ++i) {
    if (ExponentialMechanism(scores, 1.0, 1.0, rng) == 1) ++second;
  }
  EXPECT_GT(second, 1000);
}

TEST(DpMedianTest, ConcentratesNearTrueMedian) {
  Schema s = ValueSchema(0, 99);
  Dataset d{s};
  for (int i = 0; i < 200; ++i) d.Append({40 + (i % 11)});  // median ~45
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 500; ++i) {
    stats.Add(static_cast<double>(DpMedian(d, 0, /*eps=*/1.0, rng)));
  }
  EXPECT_NEAR(stats.mean(), 45.0, 3.0);
}

TEST(DpMedianTest, MoreNoiseAtSmallEps) {
  Schema s = ValueSchema(0, 99);
  Dataset d{s};
  for (int i = 0; i < 100; ++i) d.Append({50});
  Rng rng(6);
  RunningStats tight;
  RunningStats tight_error;  // |median - 50|
  RunningStats loose_error;
  for (int i = 0; i < 400; ++i) {
    const double t = static_cast<double>(DpMedian(d, 0, 2.0, rng));
    tight.Add(t);
    tight_error.Add(std::fabs(t - 50.0));
    loose_error.Add(
        std::fabs(static_cast<double>(DpMedian(d, 0, 0.02, rng)) - 50.0));
  }
  EXPECT_LT(tight_error.mean(), loose_error.mean());
  EXPECT_NEAR(tight.mean(), 50.0, 2.0);
}

TEST(DpQuantileTest, QuartilesOrdered) {
  Schema s = ValueSchema(0, 999);
  Dataset d{s};
  Rng gen(7);
  for (int i = 0; i < 500; ++i) d.Append({gen.UniformInt(0, 999)});
  Rng rng(8);
  double q25 = 0.0;
  double q75 = 0.0;
  for (int i = 0; i < 200; ++i) {
    q25 += static_cast<double>(DpQuantile(d, 0, 0.25, 1.0, rng));
    q75 += static_cast<double>(DpQuantile(d, 0, 0.75, 1.0, rng));
  }
  EXPECT_LT(q25, q75);
  EXPECT_NEAR(q25 / 200.0, 250.0, 60.0);
  EXPECT_NEAR(q75 / 200.0, 750.0, 60.0);
}

// Property: DpQuantile output is always in the attribute domain.
class DpQuantileDomainTest : public ::testing::TestWithParam<double> {};

TEST_P(DpQuantileDomainTest, StaysInDomain) {
  Schema s = ValueSchema(10, 20);
  Dataset d{s};
  for (int i = 0; i < 30; ++i) d.Append({15});
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    int64_t v = DpQuantile(d, 0, GetParam(), 0.1, rng);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
  }
}

INSTANTIATE_TEST_SUITE_P(Quantiles, DpQuantileDomainTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.9, 1.0));

}  // namespace
}  // namespace pso::dp
