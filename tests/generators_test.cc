// Tests for the prebuilt universes.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "data/generators.h"

namespace pso {
namespace {

TEST(GeneratorsTest, BirthdayUniverseMatchesPaper) {
  Universe u = MakeBirthdayUniverse();
  EXPECT_EQ(u.schema.NumAttributes(), 1u);
  EXPECT_EQ(u.schema.attribute(0).DomainSize(), 365);
  EXPECT_DOUBLE_EQ(u.distribution.RecordProbability({0}), 1.0 / 365.0);
}

TEST(GeneratorsTest, GicUniverseShape) {
  Universe u = MakeGicMedicalUniverse(100);
  std::set<std::string> names;
  for (size_t a = 0; a < u.schema.NumAttributes(); ++a) {
    names.insert(u.schema.attribute(a).name());
  }
  for (const char* name : {"zip", "birth_year", "birth_day", "sex",
                           "diagnosis"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
  EXPECT_EQ(u.schema.NumAttributes(), 8u);
  // Rich domain: the class-predicate negligibility precondition of
  // Theorem 2.10 needs log2 |X| >> log2 n.
  double log2_domain = 0.0;
  for (size_t a = 0; a < u.schema.NumAttributes(); ++a) {
    log2_domain +=
        std::log2(static_cast<double>(u.schema.attribute(a).DomainSize()));
  }
  EXPECT_GT(log2_domain, 30.0);
}

TEST(GeneratorsTest, GicSamplesAreValid) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(1);
  Dataset x = u.distribution.SampleDataset(500, rng);
  for (const Record& r : x.records()) {
    EXPECT_TRUE(u.schema.IsValidRecord(r));
  }
}

TEST(GeneratorsTest, CensusUniverseMarginals) {
  Universe u = MakeCensusPersonUniverse();
  EXPECT_EQ(u.schema.NumAttributes(), 4u);
  // Hispanic share ~ 16.3%.
  EXPECT_NEAR(u.distribution.marginal(3).Probability(1), 0.163, 1e-9);
  // Ages sum to 1.
  double total = 0.0;
  for (int64_t a = 0; a <= 115; ++a) {
    total += u.distribution.marginal(0).Probability(a);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(GeneratorsTest, RatingsUniverseSparse) {
  Universe u = MakeRatingsUniverse(32, 0.05);
  EXPECT_EQ(u.schema.NumAttributes(), 32u);
  Rng rng(2);
  Dataset x = u.distribution.SampleDataset(200, rng);
  // Mean rated count should be modest (sparse) but nonzero.
  double total = 0.0;
  for (const Record& r : x.records()) {
    for (int64_t v : r) total += static_cast<double>(v);
  }
  double mean_rated = total / 200.0;
  EXPECT_GT(mean_rated, 0.5);
  EXPECT_LT(mean_rated, 10.0);
}

TEST(GeneratorsTest, RatingsPopularityDecays) {
  Universe u = MakeRatingsUniverse(64, 0.08);
  double first = u.distribution.marginal(0).Probability(1);
  double last = u.distribution.marginal(63).Probability(1);
  EXPECT_GT(first, last);
}

}  // namespace
}  // namespace pso
