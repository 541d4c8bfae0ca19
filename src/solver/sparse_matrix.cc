#include "solver/sparse_matrix.h"

#include "common/check.h"

namespace pso {

SparseMatrix SparseMatrix::FromTriplets(
    size_t rows, size_t cols, const std::vector<SparseTriplet>& entries) {
  SparseMatrix m;

  // Two-pass counting sort by column: count, prefix-sum, place. Within a
  // column, entries keep their triplet order before duplicate folding, so
  // construction is deterministic for a given triplet sequence.
  std::vector<size_t> count(cols + 1, 0);
  for (const SparseTriplet& t : entries) {
    PSO_CHECK(t.row < rows && t.col < cols);
    ++count[t.col + 1];
  }
  for (size_t c = 0; c < cols; ++c) count[c + 1] += count[c];

  std::vector<size_t> row_index(entries.size());
  std::vector<double> values(entries.size());
  std::vector<size_t> cursor(count.begin(), count.end() - 1);
  for (const SparseTriplet& t : entries) {
    size_t k = cursor[t.col]++;
    row_index[k] = t.row;
    values[k] = t.value;
  }

  // Fold duplicates per column (sum), compacting in place. Entries within
  // a column are sorted by row first so equal rows become adjacent;
  // insertion sort is fine at the per-column sizes the solver produces.
  std::vector<size_t> col_start(cols + 1, 0);
  size_t out = 0;
  for (size_t c = 0; c < cols; ++c) {
    size_t begin = count[c];
    size_t end = count[c + 1];
    for (size_t i = begin + 1; i < end; ++i) {
      size_t r = row_index[i];
      double v = values[i];
      size_t j = i;
      while (j > begin && row_index[j - 1] > r) {
        row_index[j] = row_index[j - 1];
        values[j] = values[j - 1];
        --j;
      }
      row_index[j] = r;
      values[j] = v;
    }
    col_start[c] = out;
    for (size_t i = begin; i < end; ++i) {
      if (out > col_start[c] && row_index[out - 1] == row_index[i]) {
        values[out - 1] += values[i];
      } else {
        row_index[out] = row_index[i];
        values[out] = values[i];
        ++out;
      }
    }
  }
  col_start[cols] = out;
  row_index.resize(out);
  values.resize(out);

  m.col_start_ = std::move(col_start);
  m.row_index_ = std::move(row_index);
  m.values_ = std::move(values);
  return m;
}

}  // namespace pso
