// Tests for marginals, product distributions, and empirical distributions.

#include <gtest/gtest.h>

#include <cmath>

#include "data/distribution.h"

namespace pso {
namespace {

TEST(MarginalTest, NormalizesWeights) {
  Marginal m(0, {2.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(m.Probability(0), 0.25);
  EXPECT_DOUBLE_EQ(m.Probability(1), 0.25);
  EXPECT_DOUBLE_EQ(m.Probability(2), 0.5);
  EXPECT_DOUBLE_EQ(m.Probability(3), 0.0);
  EXPECT_DOUBLE_EQ(m.Probability(-1), 0.0);
}

TEST(MarginalTest, UniformFactory) {
  Marginal m = Marginal::Uniform(5, 9);
  EXPECT_EQ(m.min_value(), 5);
  EXPECT_EQ(m.max_value(), 9);
  for (int64_t v = 5; v <= 9; ++v) EXPECT_DOUBLE_EQ(m.Probability(v), 0.2);
}

TEST(MarginalTest, ZipfDecreasing) {
  Marginal m = Marginal::Zipf(0, 10, 1.0);
  for (int64_t v = 1; v < 10; ++v) {
    EXPECT_GT(m.Probability(v - 1), m.Probability(v));
  }
  EXPECT_NEAR(m.Probability(0) / m.Probability(1), 2.0, 1e-9);
}

TEST(MarginalTest, MassInRange) {
  Marginal m = Marginal::Uniform(0, 9);
  EXPECT_DOUBLE_EQ(m.MassInRange(0, 9), 1.0);
  EXPECT_DOUBLE_EQ(m.MassInRange(0, 4), 0.5);
  EXPECT_DOUBLE_EQ(m.MassInRange(3, 3), 0.1);
  EXPECT_DOUBLE_EQ(m.MassInRange(8, 20), 0.2);    // clipped
  EXPECT_DOUBLE_EQ(m.MassInRange(-5, -1), 0.0);   // disjoint
  EXPECT_DOUBLE_EQ(m.MassInRange(5, 4), 0.0);     // empty
}

TEST(MarginalTest, SamplingMatchesProbabilities) {
  Marginal m(10, {1.0, 2.0, 7.0});
  Rng rng(3);
  std::vector<int> counts(3, 0);
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    int64_t v = m.Sample(rng);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 12);
    ++counts[v - 10];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kTrials), 0.1, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kTrials), 0.7, 0.01);
}

Schema SmallSchema() {
  return Schema({Attribute::Integer("a", 0, 1),
                 Attribute::Integer("b", 0, 2)});
}

TEST(ProductDistributionTest, RecordProbabilityIsProduct) {
  Schema s = SmallSchema();
  ProductDistribution d(
      s, {Marginal(0, {0.25, 0.75}), Marginal(0, {0.5, 0.3, 0.2})});
  EXPECT_DOUBLE_EQ(d.RecordProbability({1, 0}), 0.75 * 0.5);
  EXPECT_DOUBLE_EQ(d.RecordProbability({0, 2}), 0.25 * 0.2);
  EXPECT_DOUBLE_EQ(d.RecordProbability({0, 5}), 0.0);
  EXPECT_DOUBLE_EQ(d.RecordProbability({0}), 0.0);  // wrong arity
}

TEST(ProductDistributionTest, UniformOverFactory) {
  Schema s = SmallSchema();
  ProductDistribution d = ProductDistribution::UniformOver(s);
  EXPECT_DOUBLE_EQ(d.RecordProbability({0, 0}), 1.0 / 6.0);
}

TEST(ProductDistributionTest, SampleDatasetShape) {
  Schema s = SmallSchema();
  ProductDistribution d = ProductDistribution::UniformOver(s);
  Rng rng(9);
  Dataset x = d.SampleDataset(50, rng);
  EXPECT_EQ(x.size(), 50u);
  for (const Record& r : x.records()) EXPECT_TRUE(s.IsValidRecord(r));
}

TEST(ProductDistributionTest, SamplingMatchesJointProbability) {
  Schema s = SmallSchema();
  ProductDistribution d(
      s, {Marginal(0, {0.3, 0.7}), Marginal(0, {0.6, 0.3, 0.1})});
  Rng rng(15);
  int hits = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    Record r = d.Sample(rng);
    if (r[0] == 1 && r[1] == 0) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kTrials), 0.42, 0.01);
}

}  // namespace
}  // namespace pso
