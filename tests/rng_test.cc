// Unit and property tests for the deterministic RNG and its samplers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"

namespace pso {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng fork = a.Fork();
  // Fork and parent should not replay each other.
  EXPECT_NE(a.NextUint64(), fork.NextUint64());
}

TEST(RngTest, UniformUint64RespectsBound) {
  Rng rng(11);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformUint64(bound), bound);
  }
}

TEST(RngTest, UniformUint64IsRoughlyUniform) {
  Rng rng(13);
  const uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) ++counts[rng.UniformUint64(kBound)];
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials / 10, 600);  // ~6 sigma
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(17);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformDoublePositiveNeverZero) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.UniformDoublePositive(), 0.0);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(29);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(31);
  int hits = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kTrials), 0.3, 0.01);
}

TEST(RngTest, LaplaceMeanAndScale) {
  Rng rng(37);
  const double kScale = 2.0;
  double sum = 0.0;
  double sum_abs = 0.0;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    double x = rng.Laplace(kScale);
    sum += x;
    sum_abs += std::fabs(x);
  }
  EXPECT_NEAR(sum / kTrials, 0.0, 0.05);          // mean 0
  EXPECT_NEAR(sum_abs / kTrials, kScale, 0.05);   // E|X| = b
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(41);
  double sum = 0.0;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / kTrials, 0.25, 0.01);
}

TEST(RngTest, TwoSidedGeometricSymmetricAndShaped) {
  Rng rng(47);
  const double kAlpha = std::exp(-1.0);  // eps = 1
  double sum = 0.0;
  int zeros = 0;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    int64_t x = rng.TwoSidedGeometric(kAlpha);
    sum += static_cast<double>(x);
    if (x == 0) ++zeros;
  }
  EXPECT_NEAR(sum / kTrials, 0.0, 0.03);
  // P(X = 0) = (1 - alpha) / (1 + alpha).
  double p0 = (1.0 - kAlpha) / (1.0 + kAlpha);
  EXPECT_NEAR(zeros / static_cast<double>(kTrials), p0, 0.01);
}

TEST(RngTest, DiscreteFollowsWeights) {
  Rng rng(53);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) ++counts[rng.Discrete(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kTrials), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kTrials), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kTrials), 0.6, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(59);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(61);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(67);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

// Property sweep: the alias sampler must reproduce arbitrary weight
// profiles.
class DiscreteSamplerParamTest
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(DiscreteSamplerParamTest, MatchesWeights) {
  std::vector<double> weights = GetParam();
  double total = 0.0;
  for (double w : weights) total += w;
  DiscreteSampler sampler(weights);
  Rng rng(101);
  std::vector<int> counts(weights.size(), 0);
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) ++counts[sampler.Sample(rng)];
  for (size_t j = 0; j < weights.size(); ++j) {
    EXPECT_NEAR(counts[j] / static_cast<double>(kTrials), weights[j] / total,
                0.012)
        << "bucket " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightProfiles, DiscreteSamplerParamTest,
    ::testing::Values(std::vector<double>{1.0},
                      std::vector<double>{1.0, 1.0},
                      std::vector<double>{0.0, 1.0, 0.0},
                      std::vector<double>{5.0, 1.0, 1.0, 1.0, 2.0},
                      std::vector<double>{1e-3, 1.0, 1e-3},
                      std::vector<double>(64, 1.0)));

}  // namespace
}  // namespace pso
