// Information-content metric for anonymized releases.
//
// k-anonymizers "attempt to retain as much as possible information"
// (Section 2.3.4); this metric quantifies how much a release kept, so the
// attack benches can show the privacy/utility trade-off.

#ifndef PSO_KANON_METRICS_H_
#define PSO_KANON_METRICS_H_

#include "kanon/generalized.h"

namespace pso::kanon {

/// Normalized generalized information loss in [0,1]: the mean over all
/// cells of (cell width - 1) / (domain size - 1). 0 = exact data,
/// 1 = everything suppressed.
double GeneralizedInformationLoss(const GeneralizedDataset& gds);

}  // namespace pso::kanon

#endif  // PSO_KANON_METRICS_H_
