#include "common/table.h"

#include <cstdio>

#include "common/check.h"
#include "common/str_util.h"

namespace pso {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  PSO_CHECK(!headers_.empty());
}

void TextTable::AddRow(std::vector<std::string> row) {
  PSO_CHECK(row.size() == headers_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::Render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      line += "| ";
      line += row[c];
      line.append(widths[c] - row[c].size() + 1, ' ');
    }
    line += "|\n";
    return line;
  };

  std::string out = render_row(headers_);
  std::string sep;
  for (size_t c = 0; c < widths.size(); ++c) {
    sep += "|";
    sep.append(widths[c] + 2, '-');
  }
  sep += "|\n";
  out += sep;
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void TextTable::Print() const { std::fputs(Render().c_str(), stdout); }

}  // namespace pso
