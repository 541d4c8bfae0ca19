// Unit tests for Status, Result, string utilities, and TextTable.

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/table.h"

namespace pso {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kInfeasible}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

TEST(StrUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrUtilTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "", "bc", "d"};
  std::string joined = Join(parts, ",");
  EXPECT_EQ(joined, "a,,bc,d");
  EXPECT_EQ(Split(joined, ','), parts);
}

TEST(StrUtilTest, SplitSingleToken) {
  EXPECT_EQ(Split("abc", ','), std::vector<std::string>{"abc"});
  EXPECT_EQ(Split("", ','), std::vector<std::string>{""});
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "10000"});
  std::string rendered = t.Render();
  EXPECT_NE(rendered.find("| name "), std::string::npos);
  EXPECT_NE(rendered.find("| alpha "), std::string::npos);
  EXPECT_NE(rendered.find("| 10000 "), std::string::npos);
}

}  // namespace
}  // namespace pso
