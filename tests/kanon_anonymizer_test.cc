// Tests for the Datafly and Mondrian anonymizers, the paper's Section 1.1
// toy example, and the l-diversity / t-closeness checks and metrics.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "kanon/checks.h"
#include "kanon/datafly.h"
#include "kanon/metrics.h"
#include "kanon/mondrian.h"

namespace pso::kanon {
namespace {

// The paper's toy dataset (Section 1.1): ZIP, Age, Sex, Disease. Disease
// codes are laid out so the pulmonary group {CF, Asthma} is contiguous.
Schema ToySchema() {
  return Schema({
      Attribute::Integer("zip", 10000, 29999),
      Attribute::Integer("age", 0, 99),
      Attribute::Categorical("sex", {"F", "M"}),
      Attribute::Categorical("disease", {"COVID", "FLU", "CF", "Asthma"}),
  });
}

Dataset ToyData() {
  return Dataset(ToySchema(), {
                                  {23456, 55, 0, 0},  // F, COVID
                                  {23456, 42, 0, 0},  // F, COVID
                                  {12345, 30, 1, 2},  // M, CF
                                  {12346, 33, 0, 3},  // F, Asthma
                              });
}

HierarchySet ToyHierarchies() {
  Schema s = ToySchema();
  return HierarchySet(
      s, {
             ValueHierarchy::Intervals(s.attribute(0), {1, 10, 100, 1000}),
             ValueHierarchy::Intervals(s.attribute(1), {1, 10, 50}),
             ValueHierarchy::IdentityOrSuppress(s.attribute(2)),
             // Width-2 level groups {COVID, FLU} and {CF, Asthma}=PULM.
             ValueHierarchy::Intervals(s.attribute(3), {1, 2}),
         });
}

TEST(DataflyTest, ToyExampleReaches2Anonymity) {
  DataflyOptions opts;
  opts.k = 2;
  opts.qi_attrs = {0, 1, 2, 3};
  opts.max_suppression = 0.0;
  auto result = DataflyAnonymize(ToyData(), ToyHierarchies(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(IsKAnonymous(result->generalized, 2, opts.qi_attrs));
  EXPECT_EQ(result->suppressed_rows, 0u);
  // Every generalized row covers its original record.
  Dataset data = ToyData();
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(result->generalized.Covers(i, data.record(i)));
  }
  // The paper's table pairs rows {0,1} and rows {2,3} (the PULM class).
  bool found_pulm_pair = false;
  for (const auto& cls : result->classes) {
    if (cls.size() == 2 &&
        ((cls[0] == 2 && cls[1] == 3) || (cls[0] == 3 && cls[1] == 2))) {
      found_pulm_pair = true;
    }
  }
  EXPECT_TRUE(found_pulm_pair);
}

TEST(DataflyTest, SuppressionBudgetRespected) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(1);
  Dataset data = u.distribution.SampleDataset(300, rng);
  HierarchySet hs = HierarchySet::Defaults(u.schema);
  DataflyOptions opts;
  opts.k = 5;
  opts.qi_attrs = {0, 1, 2, 3};  // zip, birth_year, birth_day, sex
  opts.max_suppression = 0.05;
  auto result = DataflyAnonymize(data, hs, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->suppressed_rows, static_cast<size_t>(0.05 * 300));
  EXPECT_TRUE(IsKAnonymous(result->generalized, 5, opts.qi_attrs));
}

TEST(DataflyTest, RejectsBadOptions) {
  Dataset data = ToyData();
  HierarchySet hs = ToyHierarchies();
  DataflyOptions opts;
  opts.k = 2;
  opts.qi_attrs = {};
  EXPECT_FALSE(DataflyAnonymize(data, hs, opts).ok());
  opts.qi_attrs = {99};
  EXPECT_FALSE(DataflyAnonymize(data, hs, opts).ok());
  opts.qi_attrs = {0};
  opts.k = 0;
  EXPECT_FALSE(DataflyAnonymize(data, hs, opts).ok());
}

TEST(MondrianTest, ProducesKAnonymousClasses) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(2);
  Dataset data = u.distribution.SampleDataset(500, rng);
  HierarchySet hs = HierarchySet::Defaults(u.schema);
  MondrianOptions opts;
  opts.k = 5;
  opts.qi_attrs = {0, 1, 2, 3};
  auto result = MondrianAnonymize(data, hs, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& cls : result->classes) {
    EXPECT_GE(cls.size(), 5u);
  }
  // Coverage: every generalized row covers its original.
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(result->generalized.Covers(i, data.record(i)));
  }
  // Classes partition the rows.
  size_t covered = 0;
  for (const auto& cls : result->classes) covered += cls.size();
  EXPECT_EQ(covered, data.size());
}

TEST(MondrianTest, TightRangesAreAttained) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(3);
  Dataset data = u.distribution.SampleDataset(300, rng);
  HierarchySet hs = HierarchySet::Defaults(u.schema);
  MondrianOptions opts;
  opts.k = 5;
  opts.qi_attrs = {0, 1, 2, 3};
  opts.tight_ranges = true;
  auto result = MondrianAnonymize(data, hs, opts);
  ASSERT_TRUE(result.ok());
  // For each class and each QI attribute, some member attains the lo and
  // some member attains the hi (the leak the minimality attack uses).
  for (const auto& cls : result->classes) {
    const auto& cells = result->generalized.row(cls.front());
    for (size_t qi : opts.qi_attrs) {
      bool lo_attained = false;
      bool hi_attained = false;
      for (size_t i : cls) {
        if (data.At(i, qi) == cells[qi].lo) lo_attained = true;
        if (data.At(i, qi) == cells[qi].hi) hi_attained = true;
      }
      EXPECT_TRUE(lo_attained);
      EXPECT_TRUE(hi_attained);
    }
  }
}

TEST(MondrianTest, FewerRowsThanKIsInfeasible) {
  Dataset data = ToyData();
  HierarchySet hs = ToyHierarchies();
  MondrianOptions opts;
  opts.k = 10;
  opts.qi_attrs = {0, 1};
  auto result = MondrianAnonymize(data, hs, opts);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(MetricsTest, LossGrowsWithK) {
  Universe u = MakeGicMedicalUniverse(50);
  Rng rng(4);
  Dataset data = u.distribution.SampleDataset(400, rng);
  HierarchySet hs = HierarchySet::Defaults(u.schema);
  MondrianOptions opts;
  opts.qi_attrs = {0, 1, 2, 3};
  opts.k = 2;
  auto k2 = MondrianAnonymize(data, hs, opts);
  opts.k = 20;
  auto k20 = MondrianAnonymize(data, hs, opts);
  ASSERT_TRUE(k2.ok() && k20.ok());
  EXPECT_LT(GeneralizedInformationLoss(k2->generalized),
            GeneralizedInformationLoss(k20->generalized));
}

TEST(MetricsTest, ExactDataHasZeroLoss) {
  Schema s = ToySchema();
  HierarchySet hs = ToyHierarchies();
  GeneralizedDataset gds{hs};
  gds.Append({{23456, 23456}, {55, 55}, {0, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(GeneralizedInformationLoss(gds), 0.0);
}

TEST(ChecksTest, LDiversity) {
  Dataset data = ToyData();
  // Classes: rows {0,1} share disease 0 (1 distinct), rows {2,3} have
  // diseases 2 and 3 (2 distinct).
  std::vector<std::vector<size_t>> classes = {{0, 1}, {2, 3}};
  EXPECT_TRUE(IsLDiverse(data, classes, 3, 1));
  EXPECT_FALSE(IsLDiverse(data, classes, 3, 2));  // class {0,1} fails
  EXPECT_TRUE(IsLDiverse(data, {{2, 3}}, 3, 2));
}

TEST(ChecksTest, TCloseness) {
  Dataset data = ToyData();
  // One class with all rows is 0-close by definition.
  std::vector<std::vector<size_t>> one_class = {{0, 1, 2, 3}};
  EXPECT_NEAR(TClosenessValue(data, one_class, 3), 0.0, 1e-12);
  // Fully skewed classes are far from the global distribution.
  std::vector<std::vector<size_t>> skewed = {{0, 1}, {2, 3}};
  double t = TClosenessValue(data, skewed, 3);
  EXPECT_GT(t, 0.4);
}

// Property sweep: Datafly output is k-anonymous for every k.
class DataflyKSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(DataflyKSweep, OutputIsKAnonymous) {
  size_t k = GetParam();
  Universe u = MakeGicMedicalUniverse(30);
  Rng rng(100 + k);
  Dataset data = u.distribution.SampleDataset(250, rng);
  HierarchySet hs = HierarchySet::Defaults(u.schema);
  DataflyOptions opts;
  opts.k = k;
  opts.qi_attrs = {0, 1, 2, 3};
  opts.max_suppression = 0.1;
  auto result = DataflyAnonymize(data, hs, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(IsKAnonymous(result->generalized, k, opts.qi_attrs));
}

INSTANTIATE_TEST_SUITE_P(Ks, DataflyKSweep,
                         ::testing::Values(2, 3, 5, 10, 25));

}  // namespace
}  // namespace pso::kanon
