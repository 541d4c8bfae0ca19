#include "kanon/datafly.h"

#include <map>
#include <set>

#include "common/check.h"
#include "common/metrics.h"
#include "common/str_util.h"

namespace pso::kanon {

namespace {

using QiKey = std::vector<std::pair<int64_t, int64_t>>;

QiKey MakeKey(const Record& r, const HierarchySet& hs,
              const std::vector<size_t>& qi,
              const std::vector<size_t>& levels) {
  QiKey key;
  key.reserve(qi.size());
  for (size_t j = 0; j < qi.size(); ++j) {
    GenCell c = hs.hierarchy(qi[j]).Generalize(r[qi[j]], levels[j]);
    key.emplace_back(c.lo, c.hi);
  }
  return key;
}

}  // namespace

Result<AnonymizationResult> DataflyAnonymize(const Dataset& data,
                                             const HierarchySet& hierarchies,
                                             const DataflyOptions& options) {
  metrics::GetCounter("kanon.datafly_runs").Add(1);
  metrics::GetCounter("kanon.records_anonymized").Add(data.size());
  PSO_SPAN("kanon.anonymize");
  if (data.empty()) {
    return Status::InvalidArgument("cannot anonymize an empty dataset");
  }
  if (options.qi_attrs.empty()) {
    return Status::InvalidArgument("no quasi-identifier attributes given");
  }
  for (size_t a : options.qi_attrs) {
    if (a >= data.schema().NumAttributes()) {
      return Status::InvalidArgument("QI attribute index out of range");
    }
  }
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");

  const std::vector<size_t>& qi = options.qi_attrs;
  std::vector<size_t> levels(qi.size(), 0);
  const size_t n = data.size();
  const size_t max_suppress =
      static_cast<size_t>(options.max_suppression * static_cast<double>(n));

  for (;;) {
    // Bucket rows by their generalized QI key.
    std::map<QiKey, std::vector<size_t>> buckets;
    for (size_t i = 0; i < n; ++i) {
      buckets[MakeKey(data.record(i), hierarchies, qi, levels)].push_back(i);
    }
    size_t outliers = 0;
    for (const auto& [key, rows] : buckets) {
      if (rows.size() < options.k) outliers += rows.size();
    }

    if (outliers <= max_suppress) {
      // Done: emit generalized rows, suppressing the outliers.
      GeneralizedDataset gds(hierarchies);
      std::vector<bool> suppress(n, false);
      for (const auto& [key, rows] : buckets) {
        if (rows.size() < options.k) {
          for (size_t i : rows) suppress[i] = true;
        }
      }
      const Schema& schema = data.schema();
      for (size_t i = 0; i < n; ++i) {
        std::vector<GenCell> cells(schema.NumAttributes());
        for (size_t a = 0; a < schema.NumAttributes(); ++a) {
          const Attribute& attr = schema.attribute(a);
          if (suppress[i]) {
            cells[a] = GenCell{attr.MinValue(), attr.MaxValue()};
            continue;
          }
          cells[a] = GenCell{data.At(i, a), data.At(i, a)};
        }
        if (!suppress[i]) {
          for (size_t j = 0; j < qi.size(); ++j) {
            cells[qi[j]] =
                hierarchies.hierarchy(qi[j]).Generalize(data.At(i, qi[j]),
                                                        levels[j]);
          }
        }
        gds.Append(std::move(cells));
      }

      AnonymizationResult result{std::move(gds), {}, outliers};
      // Classes follow the QI buckets (k-anonymity is over the QI cells);
      // suppressed outliers form one catch-all class.
      std::vector<size_t> suppressed_class;
      for (const auto& [key, rows] : buckets) {
        if (rows.size() < options.k) {
          suppressed_class.insert(suppressed_class.end(), rows.begin(),
                                  rows.end());
        } else {
          result.classes.push_back(rows);
        }
      }
      if (!suppressed_class.empty()) {
        result.classes.push_back(std::move(suppressed_class));
      }
      return result;
    }

    // Generalize the QI attribute with the most distinct generalized
    // values, if any can still be generalized.
    size_t best_attr = qi.size();
    size_t best_distinct = 0;
    for (size_t j = 0; j < qi.size(); ++j) {
      const ValueHierarchy& h = hierarchies.hierarchy(qi[j]);
      if (levels[j] + 1 >= h.NumLevels()) continue;
      std::set<int64_t> distinct;
      for (size_t i = 0; i < n; ++i) {
        distinct.insert(h.Generalize(data.At(i, qi[j]), levels[j]).lo);
      }
      if (distinct.size() > best_distinct) {
        best_distinct = distinct.size();
        best_attr = j;
      }
    }
    if (best_attr == qi.size()) {
      return Status::Infeasible(StrFormat(
          "cannot reach %zu-anonymity within suppression budget "
          "(outliers=%zu, budget=%zu) even at maximal generalization",
          options.k, outliers, max_suppress));
    }
    ++levels[best_attr];
  }
}

}  // namespace pso::kanon
