// Tests for attributes and schemas.

#include <gtest/gtest.h>
#include <cmath>


#include "data/schema.h"

namespace pso {
namespace {

Schema TestSchema() {
  return Schema({
      Attribute::Integer("age", 0, 99),
      Attribute::Categorical("sex", {"F", "M"}),
      Attribute::Categorical("disease", {"flu", "covid", "asthma"}),
  });
}

TEST(AttributeTest, IntegerDomain) {
  Attribute a = Attribute::Integer("age", 10, 20);
  EXPECT_EQ(a.DomainSize(), 11);
  EXPECT_TRUE(a.IsValid(10));
  EXPECT_TRUE(a.IsValid(20));
  EXPECT_FALSE(a.IsValid(9));
  EXPECT_FALSE(a.IsValid(21));
  EXPECT_EQ(a.ValueToString(15), "15");
}

TEST(AttributeTest, CategoricalDomain) {
  Attribute a = Attribute::Categorical("sex", {"F", "M"});
  EXPECT_EQ(a.DomainSize(), 2);
  EXPECT_EQ(a.MinValue(), 0);
  EXPECT_EQ(a.MaxValue(), 1);
  EXPECT_EQ(a.ValueToString(0), "F");
  EXPECT_EQ(a.ValueToString(1), "M");
}

TEST(SchemaTest, AttributesInOrder) {
  Schema s = TestSchema();
  EXPECT_EQ(s.NumAttributes(), 3u);
  EXPECT_EQ(s.attribute(1).name(), "sex");
}

TEST(SchemaTest, RecordValidation) {
  Schema s = TestSchema();
  EXPECT_TRUE(s.IsValidRecord({42, 1, 2}));
  EXPECT_FALSE(s.IsValidRecord({42, 1}));       // wrong arity
  EXPECT_FALSE(s.IsValidRecord({42, 5, 2}));    // sex out of domain
  EXPECT_FALSE(s.IsValidRecord({-1, 1, 2}));    // age out of domain
}

TEST(SchemaTest, RecordToString) {
  Schema s = TestSchema();
  EXPECT_EQ(s.RecordToString({42, 0, 1}), "age=42, sex=F, disease=covid");
}

TEST(SchemaTest, RecordKeyDistinguishesRecords) {
  Schema s = TestSchema();
  EXPECT_EQ(s.RecordKey({1, 0, 0}), s.RecordKey({1, 0, 0}));
  EXPECT_NE(s.RecordKey({1, 0, 0}), s.RecordKey({0, 1, 0}));
  EXPECT_NE(s.RecordKey({1, 0, 0}), s.RecordKey({1, 0, 1}));
}

}  // namespace
}  // namespace pso
