#include "kanon/hierarchy.h"

#include <algorithm>

#include "common/check.h"
#include "common/str_util.h"

namespace pso::kanon {

ValueHierarchy::ValueHierarchy(int64_t min, int64_t max,
                               std::vector<int64_t> widths)
    : min_(min), max_(max), widths_(std::move(widths)) {}

ValueHierarchy ValueHierarchy::Intervals(const Attribute& attr,
                                         std::vector<int64_t> widths) {
  PSO_CHECK_MSG(!widths.empty() && widths[0] == 1,
                "hierarchy must start with width 1 (identity level)");
  int64_t domain = attr.DomainSize();
  for (size_t i = 1; i < widths.size(); ++i) {
    PSO_CHECK_MSG(widths[i] > widths[i - 1], "widths must increase");
    PSO_CHECK_MSG(widths[i] % widths[i - 1] == 0,
                  "each width must divide the next (nesting)");
  }
  if (widths.back() < domain) widths.push_back(domain);
  return ValueHierarchy(attr.MinValue(), attr.MaxValue(), std::move(widths));
}

ValueHierarchy ValueHierarchy::IdentityOrSuppress(const Attribute& attr) {
  std::vector<int64_t> widths = {1};
  if (attr.DomainSize() > 1) widths.push_back(attr.DomainSize());
  return ValueHierarchy(attr.MinValue(), attr.MaxValue(), std::move(widths));
}

GenCell ValueHierarchy::Generalize(int64_t value, size_t level) const {
  PSO_CHECK(level < widths_.size());
  PSO_CHECK_MSG(value >= min_ && value <= max_, "value out of domain");
  int64_t w = widths_[level];
  int64_t bucket = (value - min_) / w;
  GenCell cell;
  cell.lo = min_ + bucket * w;
  cell.hi = std::min(max_, cell.lo + w - 1);
  return cell;
}

int64_t ValueHierarchy::NumCells(size_t level) const {
  PSO_CHECK(level < widths_.size());
  int64_t domain = max_ - min_ + 1;
  int64_t w = widths_[level];
  return (domain + w - 1) / w;
}

void ValueHierarchy::SetLevelLabels(size_t level,
                                    std::vector<std::string> labels) {
  PSO_CHECK(level < widths_.size());
  PSO_CHECK_MSG(static_cast<int64_t>(labels.size()) == NumCells(level),
                "one label per cell required");
  if (labels_.size() < widths_.size()) labels_.resize(widths_.size());
  labels_[level] = std::move(labels);
}

std::string ValueHierarchy::CellLabel(int64_t value, size_t level) const {
  PSO_CHECK(level < widths_.size());
  if (level >= labels_.size() || labels_[level].empty()) return "";
  int64_t bucket = (value - min_) / widths_[level];
  return labels_[level][static_cast<size_t>(bucket)];
}

HierarchySet::HierarchySet(Schema schema,
                           std::vector<ValueHierarchy> hierarchies)
    : schema_(std::move(schema)), hierarchies_(std::move(hierarchies)) {
  PSO_CHECK(hierarchies_.size() == schema_.NumAttributes());
  for (size_t i = 0; i < hierarchies_.size(); ++i) {
    PSO_CHECK_MSG(hierarchies_[i].domain_min() ==
                          schema_.attribute(i).MinValue() &&
                      hierarchies_[i].domain_max() ==
                          schema_.attribute(i).MaxValue(),
                  "hierarchy domain mismatch");
  }
}

HierarchySet HierarchySet::Defaults(const Schema& schema) {
  std::vector<ValueHierarchy> hs;
  hs.reserve(schema.NumAttributes());
  for (size_t i = 0; i < schema.NumAttributes(); ++i) {
    const Attribute& a = schema.attribute(i);
    int64_t domain = a.DomainSize();
    if (domain <= 4) {
      hs.push_back(ValueHierarchy::IdentityOrSuppress(a));
      continue;
    }
    // Doubling chain 1, 2, 4, ... capped below the domain size.
    std::vector<int64_t> widths;
    for (int64_t w = 1; w < domain; w *= 2) widths.push_back(w);
    hs.push_back(ValueHierarchy::Intervals(a, std::move(widths)));
  }
  return HierarchySet(schema, std::move(hs));
}

const ValueHierarchy& HierarchySet::hierarchy(size_t attr) const {
  PSO_CHECK(attr < hierarchies_.size());
  return hierarchies_[attr];
}

std::string HierarchySet::CellToString(size_t attr,
                                       const GenCell& cell) const {
  const Attribute& a = schema_.attribute(attr);
  if (cell.lo <= a.MinValue() && cell.hi >= a.MaxValue()) return "*";
  if (cell.lo == cell.hi) return a.ValueToString(cell.lo);
  // Prefer a taxonomy label if the cell matches a labelled level's bucket.
  const ValueHierarchy& h = hierarchy(attr);
  for (size_t level = 0; level < h.NumLevels(); ++level) {
    if (h.Generalize(cell.lo, level) == cell) {
      std::string label = h.CellLabel(cell.lo, level);
      if (!label.empty()) return label;
    }
  }
  return a.ValueToString(cell.lo) + "-" + a.ValueToString(cell.hi);
}

}  // namespace pso::kanon
