// Dataset: an ordered collection of records sharing a schema.
//
// This is the "x = (x_1, ..., x_n) in X^n" of the paper. Order matters only
// for bookkeeping; the attacks never isolate by position (Definition 2.1
// forbids it), but the experiment harnesses need stable indices to score
// reconstruction accuracy.

#ifndef PSO_DATA_DATASET_H_
#define PSO_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/schema.h"

namespace pso {

/// A row-oriented table of records with a shared schema.
class Dataset {
 public:
  /// Creates an empty dataset over `schema`.
  explicit Dataset(Schema schema);

  /// Creates a dataset from `records` (each validated against `schema`).
  Dataset(Schema schema, std::vector<Record> records);

  const Schema& schema() const { return schema_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  const Record& record(size_t i) const;
  const std::vector<Record>& records() const { return records_; }

  /// Appends a record; aborts if it does not match the schema.
  void Append(Record record);

  /// Value of attribute `attr` in row `row`.
  int64_t At(size_t row, size_t attr) const;

  /// Returns a dataset containing only the given attribute columns,
  /// in the given order.
  Dataset Project(const std::vector<size_t>& attr_indices) const;

  /// Groups rows by full-record equality; returns groups of row indices.
  /// Used for equivalence-class analysis and uniqueness statistics.
  std::vector<std::vector<size_t>> GroupIdentical() const;

  /// Renders the first `max_rows` rows for debugging/examples.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Record> records_;
};

}  // namespace pso

#endif  // PSO_DATA_DATASET_H_
