#include "kanon/checks.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/check.h"

namespace pso::kanon {

bool IsLDiverse(const Dataset& data,
                const std::vector<std::vector<size_t>>& classes,
                size_t sensitive_attr, size_t l) {
  PSO_CHECK(sensitive_attr < data.schema().NumAttributes());
  for (const auto& cls : classes) {
    std::set<int64_t> values;
    for (size_t i : cls) values.insert(data.At(i, sensitive_attr));
    if (values.size() < l) return false;
  }
  return true;
}

double TClosenessValue(const Dataset& data,
                       const std::vector<std::vector<size_t>>& classes,
                       size_t sensitive_attr) {
  PSO_CHECK(sensitive_attr < data.schema().NumAttributes());
  const Attribute& attr = data.schema().attribute(sensitive_attr);
  const size_t domain = static_cast<size_t>(attr.DomainSize());
  const int64_t base = attr.MinValue();

  std::vector<double> global(domain, 0.0);
  for (const Record& r : data.records()) {
    global[static_cast<size_t>(r[sensitive_attr] - base)] += 1.0;
  }
  for (double& g : global) g /= static_cast<double>(data.size());

  double worst = 0.0;
  for (const auto& cls : classes) {
    if (cls.empty()) continue;
    std::vector<double> local(domain, 0.0);
    for (size_t i : cls) {
      local[static_cast<size_t>(data.At(i, sensitive_attr) - base)] += 1.0;
    }
    double tv = 0.0;
    for (size_t v = 0; v < domain; ++v) {
      tv += std::fabs(local[v] / static_cast<double>(cls.size()) - global[v]);
    }
    worst = std::max(worst, tv / 2.0);
  }
  return worst;
}

}  // namespace pso::kanon
