// Tests for the predicate algebra and isolation semantics (Definition 2.1).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "predicate/predicate.h"

namespace pso {
namespace {

Schema TestSchema() {
  return Schema({Attribute::Integer("age", 0, 99),
                 Attribute::Categorical("sex", {"F", "M"}),
                 Attribute::Integer("zip", 0, 999)});
}

ProductDistribution UniformDist() {
  return ProductDistribution::UniformOver(TestSchema());
}

TEST(PredicateTest, Constants) {
  EXPECT_TRUE(MakeTrue()->Eval({1, 0, 2}));
  EXPECT_FALSE(MakeFalse()->Eval({1, 0, 2}));
  auto d = UniformDist();
  EXPECT_DOUBLE_EQ(*MakeTrue()->ExactWeight(d), 1.0);
  EXPECT_DOUBLE_EQ(*MakeFalse()->ExactWeight(d), 0.0);
}

TEST(PredicateTest, AttributeEquals) {
  auto p = MakeAttributeEquals(0, 42, "age");
  EXPECT_TRUE(p->Eval({42, 0, 0}));
  EXPECT_FALSE(p->Eval({41, 0, 0}));
  EXPECT_EQ(p->AttributesTouched(), std::vector<size_t>{0});
  auto d = UniformDist();
  EXPECT_DOUBLE_EQ(*p->ExactWeight(d), 0.01);
  EXPECT_NE(p->Description().find("age"), std::string::npos);
}

TEST(PredicateTest, AttributeIn) {
  auto p = MakeAttributeIn(1, {1}, "sex");
  EXPECT_TRUE(p->Eval({0, 1, 0}));
  EXPECT_FALSE(p->Eval({0, 0, 0}));
  auto d = UniformDist();
  EXPECT_DOUBLE_EQ(*p->ExactWeight(d), 0.5);
  auto p2 = MakeAttributeIn(0, {1, 2, 3}, "age");
  EXPECT_DOUBLE_EQ(*p2->ExactWeight(d), 0.03);
}

TEST(PredicateTest, AttributeRange) {
  auto p = MakeAttributeRange(0, 30, 39, "age");
  EXPECT_TRUE(p->Eval({30, 0, 0}));
  EXPECT_TRUE(p->Eval({39, 0, 0}));
  EXPECT_FALSE(p->Eval({29, 0, 0}));
  EXPECT_FALSE(p->Eval({40, 0, 0}));
  auto d = UniformDist();
  EXPECT_NEAR(*p->ExactWeight(d), 0.1, 1e-12);
}

TEST(PredicateTest, AndOrNotSemantics) {
  auto age = MakeAttributeRange(0, 30, 39, "age");
  auto sex = MakeAttributeEquals(1, 0, "sex");
  auto both = MakeAnd({age, sex});
  EXPECT_TRUE(both->Eval({35, 0, 0}));
  EXPECT_FALSE(both->Eval({35, 1, 0}));
  auto either = MakeOr({age, sex});
  EXPECT_TRUE(either->Eval({35, 1, 0}));
  EXPECT_TRUE(either->Eval({10, 0, 0}));
  EXPECT_FALSE(either->Eval({10, 1, 0}));
  auto neg = MakeNot(sex);
  EXPECT_TRUE(neg->Eval({0, 1, 0}));
  EXPECT_FALSE(neg->Eval({0, 0, 0}));
}

TEST(PredicateTest, EmptyConnectives) {
  EXPECT_TRUE(MakeAnd({})->Eval({0, 0, 0}));
  EXPECT_FALSE(MakeOr({})->Eval({0, 0, 0}));
}

TEST(PredicateTest, AndExactWeightDisjointAttrs) {
  auto d = UniformDist();
  auto p = MakeAnd({MakeAttributeRange(0, 0, 9, "age"),
                    MakeAttributeEquals(1, 0, "sex"),
                    MakeAttributeRange(2, 0, 99, "zip")});
  ASSERT_TRUE(p->ExactWeight(d).has_value());
  EXPECT_NEAR(*p->ExactWeight(d), 0.1 * 0.5 * 0.1, 1e-12);
}

TEST(PredicateTest, AndExactWeightOverlappingAttrsUnavailable) {
  auto d = UniformDist();
  // Two constraints on the same attribute are not independent.
  auto p = MakeAnd({MakeAttributeRange(0, 0, 49, "age"),
                    MakeAttributeRange(0, 40, 99, "age")});
  EXPECT_FALSE(p->ExactWeight(d).has_value());
}

TEST(PredicateTest, NotExactWeight) {
  auto d = UniformDist();
  auto p = MakeNot(MakeAttributeEquals(1, 0, "sex"));
  EXPECT_DOUBLE_EQ(*p->ExactWeight(d), 0.5);
}

TEST(PredicateTest, RecordEquals) {
  Schema s = TestSchema();
  auto p = MakeRecordEquals(s, {42, 1, 100});
  EXPECT_TRUE(p->Eval({42, 1, 100}));
  EXPECT_FALSE(p->Eval({42, 1, 101}));
  auto d = UniformDist();
  EXPECT_NEAR(*p->ExactWeight(d), 1.0 / (100.0 * 2.0 * 1000.0), 1e-15);
}

TEST(PredicateTest, HashPredicateDesignWeight) {
  Schema s = TestSchema();
  Rng rng(5);
  UniversalHash h(rng, 50);
  auto p = MakeHashPredicate(s, h, 0);
  // Monte-Carlo weight under the uniform product distribution ~ 1/50.
  auto d = UniformDist();
  Rng sample_rng(7);
  int hits = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (p->Eval(d.Sample(sample_rng))) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kTrials), 0.02, 0.004);
  // No exact weight claimed.
  EXPECT_FALSE(p->ExactWeight(d).has_value());
}

TEST(PredicateTest, HashPredicateRestrictedAttrs) {
  Schema s = TestSchema();
  Rng rng(11);
  UniversalHash h(rng, 10);
  auto p = MakeHashPredicate(s, h, 3, {0, 2});
  // Only attrs 0 and 2 matter: flipping sex must not change the result.
  Record a = {42, 0, 777};
  Record b = {42, 1, 777};
  EXPECT_EQ(p->Eval(a), p->Eval(b));
}

TEST(PredicateTest, HashIntervalPredicateHalving) {
  Schema s = TestSchema();
  Rng rng(13);
  UniversalHash h(rng, 1ULL << 20);
  auto full = MakeHashIntervalPredicate(s, h, 0, 1ULL << 20);
  auto half = MakeHashIntervalPredicate(s, h, 0, 1ULL << 19);
  auto d = UniformDist();
  Rng sample_rng(17);
  int full_hits = 0;
  int half_hits = 0;
  const int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i) {
    Record r = d.Sample(sample_rng);
    if (full->Eval(r)) ++full_hits;
    if (half->Eval(r)) ++half_hits;
  }
  EXPECT_EQ(full_hits, kTrials);  // full range matches everything
  EXPECT_NEAR(half_hits / static_cast<double>(kTrials), 0.5, 0.02);
}

TEST(IsolationTest, CountMatchesAndIsolates) {
  Schema s = TestSchema();
  Dataset x(s, {{30, 0, 1}, {35, 1, 2}, {35, 0, 3}});
  auto p30 = MakeAttributeEquals(0, 30, "age");
  auto p35 = MakeAttributeEquals(0, 35, "age");
  EXPECT_EQ(CountMatches(*p30, x), 1u);
  EXPECT_EQ(CountMatches(*p35, x), 2u);
  EXPECT_TRUE(Isolates(*p30, x));
  EXPECT_FALSE(Isolates(*p35, x));       // two matches
  EXPECT_FALSE(Isolates(*MakeFalse(), x));  // zero matches
}

// Definition 2.1 rules out isolation by position: predicates only see
// values, so two identical records can never be separated.
TEST(IsolationTest, IdenticalRecordsCannotBeSeparated) {
  Schema s = TestSchema();
  Dataset x(s, {{30, 0, 1}, {30, 0, 1}});
  Rng rng(19);
  for (int i = 0; i < 20; ++i) {
    UniversalHash h(rng, 1000);
    auto p = MakeHashPredicate(s, h, 0);
    EXPECT_EQ(p->Eval(x.record(0)), p->Eval(x.record(1)));
  }
}

}  // namespace
}  // namespace pso
