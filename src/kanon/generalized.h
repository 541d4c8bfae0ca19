// Generalized datasets: the output x' of a k-anonymizer (Section 1.1).
//
// Each row is a vector of GenCells covering the corresponding input record.
// Equivalence classes are rows with identical cell vectors; k-anonymity
// (over a quasi-identifier set) means every class has size >= k.

#ifndef PSO_KANON_GENERALIZED_H_
#define PSO_KANON_GENERALIZED_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "kanon/hierarchy.h"

namespace pso::kanon {

/// A k-anonymized (generalized) view of a dataset.
class GeneralizedDataset {
 public:
  /// Creates an empty generalized dataset over `hierarchies`.
  explicit GeneralizedDataset(HierarchySet hierarchies);

  const Schema& schema() const { return hierarchies_.schema(); }

  size_t size() const { return rows_.size(); }

  /// Appends a generalized row (one cell per attribute).
  void Append(std::vector<GenCell> row);

  const std::vector<GenCell>& row(size_t i) const;

  /// True if generalized row `i` covers `record` on every attribute.
  bool Covers(size_t i, const Record& record) const;

  /// Renders the first `max_rows` generalized rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  HierarchySet hierarchies_;
  std::vector<std::vector<GenCell>> rows_;
};

/// Output of an anonymizer: the generalized view plus bookkeeping tying
/// generalized rows back to input rows (row i of `generalized` covers row
/// i of the input) and the equivalence-class structure.
struct AnonymizationResult {
  GeneralizedDataset generalized;
  std::vector<std::vector<size_t>> classes;  ///< Row-index groups.
  size_t suppressed_rows = 0;  ///< Rows fully suppressed (all-domain cells).
};

/// True if every equivalence class over the attributes in `qi` has at
/// least k rows. Empty `qi` means all attributes.
bool IsKAnonymous(const GeneralizedDataset& gds, size_t k,
                  const std::vector<size_t>& qi = {});

}  // namespace pso::kanon

#endif  // PSO_KANON_GENERALIZED_H_
