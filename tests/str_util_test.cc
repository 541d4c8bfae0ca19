#include "common/str_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pso {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f s=%s", 3, 1.5, "ab"), "x=3 y=1.50 s=ab");
  EXPECT_EQ(StrFormat("%zu/%zu", size_t{2}, size_t{10}), "2/10");
}

TEST(StrFormatTest, EmptyAndLongOutputs) {
  EXPECT_EQ(StrFormat("%s", ""), "");
  std::string big(500, 'q');
  EXPECT_EQ(StrFormat("%s!", big.c_str()), big + "!");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"", ""}, "-"), "-");
}

TEST(SplitTest, SplitsAndKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("trailing,", ','),
            (std::vector<std::string>{"trailing", ""}));
}

TEST(SplitJoinTest, JoinInvertsSplit) {
  const std::string cases[] = {"", "a", "a,b", ",,", "x,,y,"};
  for (const std::string& s : cases) {
    EXPECT_EQ(Join(Split(s, ','), ","), s) << "input: \"" << s << "\"";
  }
}

}  // namespace
}  // namespace pso
