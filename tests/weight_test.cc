// Tests for predicate weights (Definition 2.4's w_D(p)).

#include <gtest/gtest.h>

#include "common/stats.h"
#include "predicate/predicate.h"

namespace pso {
namespace {

Schema TestSchema() {
  return Schema({Attribute::Integer("a", 0, 9),
                 Attribute::Integer("b", 0, 9)});
}

TEST(WeightTest, ExactPathForDecomposablePredicates) {
  auto d = ProductDistribution::UniformOver(TestSchema());
  auto p = MakeAnd({MakeAttributeEquals(0, 3), MakeAttributeEquals(1, 7)});
  std::optional<double> w = p->ExactWeight(d);
  ASSERT_TRUE(w.has_value());
  EXPECT_DOUBLE_EQ(*w, 0.01);
}

TEST(WeightTest, MonteCarloPathForHashPredicates) {
  // A large domain so the hash's realized weight concentrates at the
  // design weight (on a tiny domain the per-key assignment fluctuates).
  Schema s({Attribute::Integer("a", 0, 9999),
            Attribute::Integer("b", 0, 9999)});
  auto d = ProductDistribution::UniformOver(s);
  Rng rng(2);
  UniversalHash h(rng, 20);
  auto p = MakeHashPredicate(s, h, 0);
  EXPECT_FALSE(p->ExactWeight(d).has_value());
  BernoulliEstimator est;
  for (int i = 0; i < 50000; ++i) est.Add(p->Eval(d.Sample(rng)));
  EXPECT_NEAR(est.rate(), 0.05, 0.01);
}

TEST(WeightTest, ZeroWeightPredicate) {
  auto d = ProductDistribution::UniformOver(TestSchema());
  std::optional<double> w = MakeFalse()->ExactWeight(d);
  ASSERT_TRUE(w.has_value());
  EXPECT_DOUBLE_EQ(*w, 0.0);
}

}  // namespace
}  // namespace pso
