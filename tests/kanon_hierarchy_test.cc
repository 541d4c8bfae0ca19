// Tests for generalization hierarchies and the generalized-dataset view.

#include <gtest/gtest.h>

#include "kanon/generalized.h"
#include "kanon/hierarchy.h"

namespace pso::kanon {
namespace {

Schema TestSchema() {
  return Schema({Attribute::Integer("age", 0, 99),
                 Attribute::Categorical("sex", {"F", "M"}),
                 Attribute::Integer("zip", 0, 99)});
}

TEST(GenCellTest, ContainsAndWidth) {
  GenCell c{30, 39};
  EXPECT_TRUE(c.Contains(30));
  EXPECT_TRUE(c.Contains(39));
  EXPECT_FALSE(c.Contains(40));
  EXPECT_EQ(c.Width(), 10);
  EXPECT_EQ(c, (GenCell{30, 39}));
}

TEST(ValueHierarchyTest, IntervalsGeneralize) {
  Attribute age = Attribute::Integer("age", 0, 99);
  ValueHierarchy h = ValueHierarchy::Intervals(age, {1, 5, 25});
  // Appends the full-domain level automatically: 1, 5, 25, 100.
  EXPECT_EQ(h.NumLevels(), 4u);
  EXPECT_EQ(h.Generalize(42, 0), (GenCell{42, 42}));
  EXPECT_EQ(h.Generalize(42, 1), (GenCell{40, 44}));
  EXPECT_EQ(h.Generalize(42, 2), (GenCell{25, 49}));
  EXPECT_EQ(h.Generalize(42, 3), (GenCell{0, 99}));
}

TEST(ValueHierarchyTest, LevelsNest) {
  Attribute age = Attribute::Integer("age", 0, 99);
  ValueHierarchy h = ValueHierarchy::Intervals(age, {1, 2, 10, 50});
  for (int64_t v = 0; v <= 99; v += 7) {
    for (size_t l = 0; l + 1 < h.NumLevels(); ++l) {
      GenCell fine = h.Generalize(v, l);
      GenCell coarse = h.Generalize(v, l + 1);
      EXPECT_LE(coarse.lo, fine.lo);
      EXPECT_GE(coarse.hi, fine.hi);
    }
  }
}

TEST(ValueHierarchyTest, NumCells) {
  Attribute age = Attribute::Integer("age", 0, 99);
  ValueHierarchy h = ValueHierarchy::Intervals(age, {1, 5});
  EXPECT_EQ(h.NumCells(0), 100);
  EXPECT_EQ(h.NumCells(1), 20);
  EXPECT_EQ(h.NumCells(2), 1);
}

TEST(ValueHierarchyTest, NonAlignedDomain) {
  Attribute a = Attribute::Integer("x", 10, 22);  // 13 values
  ValueHierarchy h = ValueHierarchy::Intervals(a, {1, 5});
  EXPECT_EQ(h.Generalize(10, 1), (GenCell{10, 14}));
  EXPECT_EQ(h.Generalize(22, 1), (GenCell{20, 22}));  // clipped at max
  EXPECT_EQ(h.NumCells(1), 3);
}

TEST(ValueHierarchyTest, IdentityOrSuppress) {
  Attribute sex = Attribute::Categorical("sex", {"F", "M"});
  ValueHierarchy h = ValueHierarchy::IdentityOrSuppress(sex);
  EXPECT_EQ(h.NumLevels(), 2u);
  EXPECT_EQ(h.Generalize(1, 0), (GenCell{1, 1}));
  EXPECT_EQ(h.Generalize(1, 1), (GenCell{0, 1}));
}

TEST(ValueHierarchyTest, TaxonomyLabels) {
  Attribute disease =
      Attribute::Categorical("disease", {"COVID", "FLU", "CF", "Asthma"});
  ValueHierarchy h = ValueHierarchy::Intervals(disease, {1, 2});
  h.SetLevelLabels(1, {"VIRAL", "PULM"});
  EXPECT_EQ(h.CellLabel(0, 1), "VIRAL");
  EXPECT_EQ(h.CellLabel(1, 1), "VIRAL");
  EXPECT_EQ(h.CellLabel(2, 1), "PULM");
  EXPECT_EQ(h.CellLabel(3, 1), "PULM");
  EXPECT_EQ(h.CellLabel(2, 0), "");  // unlabelled level
}

TEST(HierarchySetTest, CellToStringUsesTaxonomyLabels) {
  Schema s({Attribute::Categorical("disease",
                                   {"COVID", "FLU", "CF", "Asthma"})});
  ValueHierarchy h = ValueHierarchy::Intervals(s.attribute(0), {1, 2});
  h.SetLevelLabels(1, {"VIRAL", "PULM"});
  HierarchySet hs(s, {std::move(h)});
  EXPECT_EQ(hs.CellToString(0, GenCell{2, 3}), "PULM");
  EXPECT_EQ(hs.CellToString(0, GenCell{0, 1}), "VIRAL");
  EXPECT_EQ(hs.CellToString(0, GenCell{0, 0}), "COVID");
  EXPECT_EQ(hs.CellToString(0, GenCell{0, 3}), "*");
}

TEST(HierarchySetTest, DefaultsCoverSchema) {
  Schema s = TestSchema();
  HierarchySet hs = HierarchySet::Defaults(s);
  EXPECT_EQ(hs.schema().NumAttributes(), 3u);
  for (size_t a = 0; a < 3; ++a) {
    EXPECT_GE(hs.hierarchy(a).NumLevels(), 2u);
  }
}

TEST(HierarchySetTest, CellToString) {
  Schema s = TestSchema();
  HierarchySet hs = HierarchySet::Defaults(s);
  EXPECT_EQ(hs.CellToString(0, GenCell{42, 42}), "42");
  EXPECT_EQ(hs.CellToString(0, GenCell{40, 49}), "40-49");
  EXPECT_EQ(hs.CellToString(0, GenCell{0, 99}), "*");
  EXPECT_EQ(hs.CellToString(1, GenCell{0, 0}), "F");
  EXPECT_EQ(hs.CellToString(1, GenCell{0, 1}), "*");
}

TEST(GeneralizedDatasetTest, Covers) {
  Schema s = TestSchema();
  HierarchySet hs = HierarchySet::Defaults(s);
  GeneralizedDataset gds{hs};
  gds.Append({{30, 39}, {0, 0}, {10, 19}});
  EXPECT_TRUE(gds.Covers(0, {31, 0, 15}));
  EXPECT_FALSE(gds.Covers(0, {31, 1, 15}));
}

TEST(GeneralizedDatasetTest, IsKAnonymousOverQi) {
  Schema s = TestSchema();
  HierarchySet hs = HierarchySet::Defaults(s);
  GeneralizedDataset gds{hs};
  gds.Append({{30, 39}, {0, 0}, {5, 5}});
  gds.Append({{30, 39}, {0, 0}, {7, 7}});
  // Over QI {age, sex} the two rows share a class of size 2.
  EXPECT_TRUE(IsKAnonymous(gds, 2, {0, 1}));
  // Over all attributes the exact zips split them.
  EXPECT_FALSE(IsKAnonymous(gds, 2));
  EXPECT_FALSE(IsKAnonymous(gds, 3, {0, 1}));
}

}  // namespace
}  // namespace pso::kanon
