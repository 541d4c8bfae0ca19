#include "data/dataset.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace pso {

Dataset::Dataset(Schema schema) : schema_(std::move(schema)) {}

Dataset::Dataset(Schema schema, std::vector<Record> records)
    : schema_(std::move(schema)), records_(std::move(records)) {
  for (const Record& r : records_) {
    PSO_CHECK_MSG(schema_.IsValidRecord(r), "record does not match schema");
  }
}

const Record& Dataset::record(size_t i) const {
  PSO_CHECK(i < records_.size());
  return records_[i];
}

void Dataset::Append(Record record) {
  PSO_CHECK_MSG(schema_.IsValidRecord(record), "record does not match schema");
  records_.push_back(std::move(record));
}

int64_t Dataset::At(size_t row, size_t attr) const {
  PSO_CHECK(row < records_.size());
  PSO_CHECK(attr < schema_.NumAttributes());
  return records_[row][attr];
}

Dataset Dataset::Project(const std::vector<size_t>& attr_indices) const {
  std::vector<Attribute> attrs;
  attrs.reserve(attr_indices.size());
  for (size_t idx : attr_indices) attrs.push_back(schema_.attribute(idx));
  Dataset out((Schema(std::move(attrs))));
  for (const Record& r : records_) {
    Record projected;
    projected.reserve(attr_indices.size());
    for (size_t idx : attr_indices) projected.push_back(r[idx]);
    out.Append(std::move(projected));
  }
  return out;
}

std::vector<std::vector<size_t>> Dataset::GroupIdentical() const {
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (size_t i = 0; i < records_.size(); ++i) {
    buckets[schema_.RecordKey(records_[i])].push_back(i);
  }
  // Drain buckets in first-row order, not hash-iteration order: the
  // group sequence feeds reconstruction/linkage output, so it must be a
  // pure function of the records (pso_lint rule `unordered-iteration`).
  std::vector<uint64_t> keys_by_first_row;
  keys_by_first_row.reserve(buckets.size());
  {
    std::vector<std::pair<size_t, uint64_t>> order;
    order.reserve(buckets.size());
    for (auto& [key, rows] : buckets) {  // pso-lint: allow(unordered-iteration)
      order.emplace_back(rows.front(), key);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [row, key] : order) keys_by_first_row.push_back(key);
  }

  std::vector<std::vector<size_t>> groups;
  groups.reserve(buckets.size());
  for (uint64_t key : keys_by_first_row) {
    std::vector<size_t>& rows = buckets[key];
    // Hash buckets may (very rarely) merge distinct records; split exactly.
    while (!rows.empty()) {
      std::vector<size_t> group;
      const Record& rep = records_[rows.front()];
      std::vector<size_t> rest;
      for (size_t row : rows) {
        if (records_[row] == rep) {
          group.push_back(row);
        } else {
          rest.push_back(row);
        }
      }
      rows = std::move(rest);
      groups.push_back(std::move(group));
    }
  }
  return groups;
}

std::string Dataset::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < records_.size() && i < max_rows; ++i) {
    out += schema_.RecordToString(records_[i]);
    out += "\n";
  }
  if (records_.size() > max_rows) out += "...\n";
  return out;
}

}  // namespace pso
