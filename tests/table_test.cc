#include "common/table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/str_util.h"

namespace pso {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "n"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "12345"});
  EXPECT_EQ(t.Render(),
            "| name  | n     |\n"
            "|-------|-------|\n"
            "| alpha | 1     |\n"
            "| b     | 12345 |\n");
}

TEST(TextTableTest, HeaderOnlyTableRenders) {
  TextTable t({"col"});
  EXPECT_EQ(t.Render(),
            "| col |\n"
            "|-----|\n");
}

TEST(TextTableTest, EveryLineHasEqualWidth) {
  TextTable t({"a", "longer header", "c"});
  t.AddRow({"xxxxxxxxxx", "y", "z"});
  t.AddRow({"1.0000", "2.0000", "3.0000"});
  std::vector<std::string> lines = Split(t.Render(), '\n');
  ASSERT_GE(lines.size(), 2u);
  // Render() ends with a newline, so the final split field is empty.
  EXPECT_TRUE(lines.back().empty());
  lines.pop_back();
  for (const std::string& line : lines) {
    EXPECT_EQ(line.size(), lines[0].size()) << line;
  }
}

}  // namespace
}  // namespace pso
