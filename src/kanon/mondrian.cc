#include "kanon/mondrian.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/metrics.h"

namespace pso::kanon {

namespace {

// Number of distinct sensitive values among `rows`.
size_t DistinctSensitive(const Dataset& data, const std::vector<size_t>& rows,
                         size_t attr) {
  std::set<int64_t> values;
  for (size_t i : rows) values.insert(data.At(i, attr));
  return values.size();
}

struct Partition {
  std::vector<size_t> rows;
  // Bounding box over QI attributes (parallel to options.qi_attrs); used
  // when tight_ranges is false.
  std::vector<GenCell> box;
};

// Median value of attribute `attr` over `rows` (lower median).
int64_t MedianOf(const Dataset& data, const std::vector<size_t>& rows,
                 size_t attr) {
  std::vector<int64_t> vals;
  vals.reserve(rows.size());
  for (size_t i : rows) vals.push_back(data.At(i, attr));
  size_t mid = (vals.size() - 1) / 2;
  std::nth_element(vals.begin(), vals.begin() + mid, vals.end());
  return vals[mid];
}

}  // namespace

Result<AnonymizationResult> MondrianAnonymize(const Dataset& data,
                                              const HierarchySet& hierarchies,
                                              const MondrianOptions& options) {
  metrics::GetCounter("kanon.mondrian_runs").Add(1);
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
  if (data.size() < options.k) {
    return Status::Infeasible("fewer rows than k");
  }
  if (options.l_diversity >= 2) {
    if (options.sensitive_attr >= data.schema().NumAttributes()) {
      return Status::InvalidArgument("sensitive attribute out of range");
    }
    std::vector<size_t> all(data.size());
    for (size_t i = 0; i < data.size(); ++i) all[i] = i;
    if (DistinctSensitive(data, all, options.sensitive_attr) <
        options.l_diversity) {
      return Status::Infeasible(
          "dataset has fewer distinct sensitive values than l");
    }
  }

  const Schema& schema = data.schema();
  const std::vector<size_t>& qi = options.qi_attrs;

  Partition root;
  root.rows.resize(data.size());
  for (size_t i = 0; i < data.size(); ++i) root.rows[i] = i;
  root.box.reserve(qi.size());
  for (size_t a : qi) {
    root.box.push_back(
        GenCell{schema.attribute(a).MinValue(), schema.attribute(a).MaxValue()});
  }

  std::vector<Partition> leaves;
  std::vector<Partition> stack = {std::move(root)};
  while (!stack.empty()) {
    Partition part = std::move(stack.back());
    stack.pop_back();

    // Rank QI dimensions by normalized value spread inside the partition.
    struct Dim {
      size_t qi_pos;
      double spread;
      int64_t lo;
      int64_t hi;
    };
    std::vector<Dim> dims;
    dims.reserve(qi.size());
    for (size_t j = 0; j < qi.size(); ++j) {
      int64_t lo = data.At(part.rows[0], qi[j]);
      int64_t hi = lo;
      for (size_t i : part.rows) {
        int64_t v = data.At(i, qi[j]);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      double domain =
          static_cast<double>(schema.attribute(qi[j]).DomainSize());
      dims.push_back(Dim{j, static_cast<double>(hi - lo) / domain, lo, hi});
    }
    std::sort(dims.begin(), dims.end(),
              [](const Dim& a, const Dim& b) { return a.spread > b.spread; });

    bool split_done = false;
    for (const Dim& dim : dims) {
      if (dim.lo == dim.hi) continue;  // no spread, cannot split
      int64_t median = MedianOf(data, part.rows, qi[dim.qi_pos]);
      Partition left;
      Partition right;
      for (size_t i : part.rows) {
        (data.At(i, qi[dim.qi_pos]) <= median ? left.rows : right.rows)
            .push_back(i);
      }
      if (left.rows.size() < options.k || right.rows.size() < options.k) {
        continue;  // not an allowable cut
      }
      if (options.l_diversity >= 2 &&
          (DistinctSensitive(data, left.rows, options.sensitive_attr) <
               options.l_diversity ||
           DistinctSensitive(data, right.rows, options.sensitive_attr) <
               options.l_diversity)) {
        continue;  // cut would break l-diversity
      }
      left.box = part.box;
      right.box = part.box;
      left.box[dim.qi_pos].hi = median;
      right.box[dim.qi_pos].lo = median + 1;
      stack.push_back(std::move(left));
      stack.push_back(std::move(right));
      split_done = true;
      break;
    }
    if (!split_done) leaves.push_back(std::move(part));
  }

  // Emit generalized rows.
  GeneralizedDataset gds(hierarchies);
  std::vector<std::vector<GenCell>> out_rows(data.size());
  for (const Partition& leaf : leaves) {
    // Cell per QI attribute: tight min/max or the split-path box.
    std::vector<GenCell> qi_cells(qi.size());
    for (size_t j = 0; j < qi.size(); ++j) {
      if (options.tight_ranges) {
        int64_t lo = data.At(leaf.rows[0], qi[j]);
        int64_t hi = lo;
        for (size_t i : leaf.rows) {
          int64_t v = data.At(i, qi[j]);
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        qi_cells[j] = GenCell{lo, hi};
      } else {
        qi_cells[j] = leaf.box[j];
      }
    }
    for (size_t i : leaf.rows) {
      std::vector<GenCell> cells(schema.NumAttributes());
      for (size_t a = 0; a < schema.NumAttributes(); ++a) {
        cells[a] = GenCell{data.At(i, a), data.At(i, a)};
      }
      for (size_t j = 0; j < qi.size(); ++j) cells[qi[j]] = qi_cells[j];
      out_rows[i] = std::move(cells);
    }
  }
  for (auto& row : out_rows) gds.Append(std::move(row));

  AnonymizationResult result{std::move(gds), {}, 0};
  // Classes are the leaf partitions (k-anonymity is over the QI cells;
  // exact non-QI attributes must not split them).
  result.classes.reserve(leaves.size());
  for (const Partition& leaf : leaves) result.classes.push_back(leaf.rows);
  return result;
}

}  // namespace pso::kanon
