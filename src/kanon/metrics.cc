#include "kanon/metrics.h"

namespace pso::kanon {

double GeneralizedInformationLoss(const GeneralizedDataset& gds) {
  if (gds.size() == 0) return 0.0;
  const Schema& schema = gds.schema();
  double total = 0.0;
  size_t cells = 0;
  for (size_t i = 0; i < gds.size(); ++i) {
    for (size_t a = 0; a < schema.NumAttributes(); ++a) {
      double domain = static_cast<double>(schema.attribute(a).DomainSize());
      if (domain <= 1.0) continue;
      double width = static_cast<double>(gds.row(i)[a].Width());
      total += (width - 1.0) / (domain - 1.0);
      ++cells;
    }
  }
  return cells == 0 ? 0.0 : total / static_cast<double>(cells);
}
}  // namespace pso::kanon
