// Tests for the Dataset container.

#include <gtest/gtest.h>

#include "data/dataset.h"

namespace pso {
namespace {

Schema TwoColSchema() {
  return Schema({Attribute::Integer("a", 0, 9),
                 Attribute::Integer("b", 0, 9)});
}

TEST(DatasetTest, AppendAndAccess) {
  Dataset d{TwoColSchema()};
  EXPECT_TRUE(d.empty());
  d.Append({1, 2});
  d.Append({3, 4});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.At(0, 1), 2);
  EXPECT_EQ(d.record(1), (Record{3, 4}));
}

TEST(DatasetTest, ConstructorValidatesRecords) {
  Dataset d(TwoColSchema(), {{1, 1}, {2, 2}});
  EXPECT_EQ(d.size(), 2u);
}

TEST(DatasetTest, ProjectSelectsColumns) {
  Dataset d(TwoColSchema(), {{1, 2}, {3, 4}});
  Dataset p = d.Project({1});
  EXPECT_EQ(p.schema().NumAttributes(), 1u);
  EXPECT_EQ(p.schema().attribute(0).name(), "b");
  EXPECT_EQ(p.At(0, 0), 2);
  EXPECT_EQ(p.At(1, 0), 4);
}

TEST(DatasetTest, ProjectReorders) {
  Dataset d(TwoColSchema(), {{1, 2}});
  Dataset p = d.Project({1, 0});
  EXPECT_EQ(p.record(0), (Record{2, 1}));
}

TEST(DatasetTest, GroupIdenticalPartitionsRows) {
  Dataset d(TwoColSchema(), {{1, 1}, {2, 2}, {1, 1}, {3, 3}});
  auto groups = d.GroupIdentical();
  EXPECT_EQ(groups.size(), 3u);
  size_t covered = 0;
  for (const auto& g : groups) covered += g.size();
  EXPECT_EQ(covered, 4u);
}

TEST(DatasetTest, ToStringTruncates) {
  Dataset d(TwoColSchema(), {{1, 1}, {2, 2}, {3, 3}});
  std::string s = d.ToString(2);
  EXPECT_NE(s.find("..."), std::string::npos);
}

}  // namespace
}  // namespace pso
