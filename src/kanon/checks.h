// Syntactic privacy checks beyond k-anonymity: l-diversity and t-closeness
// (footnote 3 of the paper: "the analysis of k-anonymity throughout also
// holds for variants such as l-diversity and t-closeness"). The PSO attack
// experiments run these checks to show the attacked releases satisfy the
// *stronger* variants too.

#ifndef PSO_KANON_CHECKS_H_
#define PSO_KANON_CHECKS_H_

#include <vector>

#include "data/dataset.h"
#include "kanon/generalized.h"

namespace pso::kanon {

/// True if every equivalence class (given as row-index groups over `data`)
/// contains at least `l` distinct values of the sensitive attribute.
bool IsLDiverse(const Dataset& data,
                const std::vector<std::vector<size_t>>& classes,
                size_t sensitive_attr, size_t l);

/// Maximum, over classes, of the total-variation distance between the
/// class's sensitive-attribute distribution and the whole dataset's.
/// A release is t-close when this value is <= t.
double TClosenessValue(const Dataset& data,
                       const std::vector<std::vector<size_t>>& classes,
                       size_t sensitive_attr);

}  // namespace pso::kanon

#endif  // PSO_KANON_CHECKS_H_
