// Generalization hierarchies (Section 1.1: suppression and hierarchical
// generalization, e.g. ZIP-prefix truncation and age ranges).
//
// A hierarchy for an attribute is a chain of successively coarser
// partitions of the attribute's code domain into contiguous intervals:
// level 0 is the identity (no generalization) and the top level is full
// suppression ("*"). Categorical taxonomies are supported by ordering the
// category codes so that each taxonomy group is contiguous (the built-in
// universes in data/generators.h are laid out this way).

#ifndef PSO_KANON_HIERARCHY_H_
#define PSO_KANON_HIERARCHY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/schema.h"
#include "predicate/predicate.h"

namespace pso::kanon {

/// A generalized attribute value: the inclusive code interval [lo, hi].
/// lo == hi means "not generalized"; the full domain means suppressed.
struct GenCell {
  int64_t lo = 0;
  int64_t hi = 0;

  bool Contains(int64_t v) const { return lo <= v && v <= hi; }
  int64_t Width() const { return hi - lo + 1; }
  friend bool operator==(const GenCell&, const GenCell&) = default;
};

/// A chain of interval partitions of one attribute's domain.
class ValueHierarchy {
 public:
  /// Builds a hierarchy whose level-l partition uses intervals of
  /// `widths[l]` codes (aligned to the domain minimum). `widths` must be
  /// strictly increasing and start at 1; a final full-domain level is
  /// appended automatically. Each width should divide the next for the
  /// levels to nest (checked).
  static ValueHierarchy Intervals(const Attribute& attr,
                                  std::vector<int64_t> widths);

  /// The trivial two-level hierarchy: identity, then suppression.
  static ValueHierarchy IdentityOrSuppress(const Attribute& attr);

  /// Number of levels, including level 0 (identity) and the top
  /// (suppression) level.
  size_t NumLevels() const { return widths_.size(); }

  /// The generalization of `value` at `level`.
  GenCell Generalize(int64_t value, size_t level) const;

  /// Number of distinct cells at `level`.
  int64_t NumCells(size_t level) const;

  /// Attaches human-readable names to the cells of `level` (taxonomy group
  /// names like "PULM"); `labels` must have NumCells(level) entries. Used
  /// by HierarchySet::CellToString.
  void SetLevelLabels(size_t level, std::vector<std::string> labels);

  /// The label of the cell containing `value` at `level`, or empty when
  /// none was set.
  std::string CellLabel(int64_t value, size_t level) const;

  int64_t domain_min() const { return min_; }
  int64_t domain_max() const { return max_; }

 private:
  ValueHierarchy(int64_t min, int64_t max, std::vector<int64_t> widths);

  int64_t min_;
  int64_t max_;
  std::vector<int64_t> widths_;  // widths_[0] == 1; back() == domain size
  // labels_[level] is empty or has NumCells(level) entries.
  std::vector<std::vector<std::string>> labels_;
};

/// Per-attribute hierarchies for a schema, with helpers to render and to
/// turn generalized rows into predicates.
class HierarchySet {
 public:
  /// One hierarchy per schema attribute, in order.
  HierarchySet(Schema schema, std::vector<ValueHierarchy> hierarchies);

  /// Sensible defaults for any schema: integer attributes get a
  /// doubling-width chain; categorical attributes get identity/suppress
  /// unless small enough to warrant a middle level.
  static HierarchySet Defaults(const Schema& schema);

  const Schema& schema() const { return schema_; }
  const ValueHierarchy& hierarchy(size_t attr) const;

  /// Renders a cell of attribute `attr` ("42", "40-49", or "*").
  std::string CellToString(size_t attr, const GenCell& cell) const;

 private:
  Schema schema_;
  std::vector<ValueHierarchy> hierarchies_;
};

}  // namespace pso::kanon

#endif  // PSO_KANON_HIERARCHY_H_
