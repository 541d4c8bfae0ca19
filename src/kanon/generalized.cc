#include "kanon/generalized.h"

#include <map>

#include "common/check.h"
#include "common/str_util.h"

namespace pso::kanon {

GeneralizedDataset::GeneralizedDataset(HierarchySet hierarchies)
    : hierarchies_(std::move(hierarchies)) {}

void GeneralizedDataset::Append(std::vector<GenCell> row) {
  PSO_CHECK(row.size() == schema().NumAttributes());
  rows_.push_back(std::move(row));
}

const std::vector<GenCell>& GeneralizedDataset::row(size_t i) const {
  PSO_CHECK(i < rows_.size());
  return rows_[i];
}

bool GeneralizedDataset::Covers(size_t i, const Record& record) const {
  const auto& cells = row(i);
  if (record.size() != cells.size()) return false;
  for (size_t a = 0; a < cells.size(); ++a) {
    if (!cells[a].Contains(record[a])) return false;
  }
  return true;
}

std::string GeneralizedDataset::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < rows_.size() && i < max_rows; ++i) {
    std::vector<std::string> parts;
    parts.reserve(rows_[i].size());
    for (size_t a = 0; a < rows_[i].size(); ++a) {
      parts.push_back(schema().attribute(a).name() + "=" +
                      hierarchies_.CellToString(a, rows_[i][a]));
    }
    out += Join(parts, ", ");
    out += "\n";
  }
  if (rows_.size() > max_rows) out += "...\n";
  return out;
}

bool IsKAnonymous(const GeneralizedDataset& gds, size_t k,
                  const std::vector<size_t>& qi) {
  std::map<std::vector<std::pair<int64_t, int64_t>>, size_t> counts;
  std::vector<size_t> attrs = qi;
  if (attrs.empty()) {
    attrs.resize(gds.schema().NumAttributes());
    for (size_t a = 0; a < attrs.size(); ++a) attrs[a] = a;
  }
  for (size_t i = 0; i < gds.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>> key;
    key.reserve(attrs.size());
    for (size_t a : attrs) {
      const GenCell& c = gds.row(i)[a];
      key.emplace_back(c.lo, c.hi);
    }
    ++counts[std::move(key)];
  }
  for (const auto& [key, count] : counts) {
    if (count < k) return false;
  }
  return true;
}

}  // namespace pso::kanon
