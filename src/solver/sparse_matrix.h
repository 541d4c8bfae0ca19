// Column-compressed sparse storage for the revised simplex.
//
// SparseMatrix is a read-only CSC (compressed sparse column) matrix built
// once from triplets: reconstruction constraint matrices are overwhelmingly
// sparse (each query touches few records), so the solver never materializes
// a full matrix. Duplicate (row, col) triplets are summed (a row listing
// one variable twice means the sum of the coefficients); exact zeros
// produced by cancellation are kept (the simplex tolerances treat them as
// zero anyway, and dropping them would make nnz counts data-dependent in
// surprising ways).
//
// SparseVector is the companion scatter/gather workspace: a dense value
// array plus an index list of nonzero positions, giving O(nnz) iteration
// with O(1) random access — the standard sparse-solve working vector.

#ifndef PSO_SOLVER_SPARSE_MATRIX_H_
#define PSO_SOLVER_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pso {

/// One (row, column, value) entry handed to the CSC builder.
struct SparseTriplet {
  size_t row = 0;
  size_t col = 0;
  double value = 0.0;
};

/// Immutable CSC matrix.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from triplets (any order; duplicates summed). Triplet indices
  /// must be in range — the callers (simplex setup) construct them from
  /// already-validated instances.
  static SparseMatrix FromTriplets(size_t rows, size_t cols,
                                   const std::vector<SparseTriplet>& entries);

  /// Entry count of column `c`.
  size_t ColumnNnz(size_t c) const { return col_start_[c + 1] - col_start_[c]; }

  /// Iteration bounds for column `c`: entries k in [ColumnBegin(c),
  /// ColumnEnd(c)) with EntryRow(k) / EntryValue(k).
  size_t ColumnBegin(size_t c) const { return col_start_[c]; }
  size_t ColumnEnd(size_t c) const { return col_start_[c + 1]; }
  size_t EntryRow(size_t k) const { return row_index_[k]; }
  double EntryValue(size_t k) const { return values_[k]; }

 private:
  std::vector<size_t> col_start_;  ///< cols + 1 offsets into the arrays.
  std::vector<size_t> row_index_;  ///< Row of each entry, column-major.
  std::vector<double> values_;    ///< Value of each entry, column-major.
};

/// Dense-backed sparse working vector (scatter/gather). The `values`
/// array always has one slot per dimension; `nonzeros` lists tracked
/// positions in first-touch order, each exactly once. Membership is
/// recorded in a separate bitmap — "value is 0.0" is NOT the tracking
/// criterion, because a position can cancel to exact zero and be touched
/// again, and listing it twice would double-apply updates iterating
/// nonzeros(). Clear() is O(nnz).
class SparseVector {
 public:
  explicit SparseVector(size_t dim = 0) { Resize(dim); }

  void Resize(size_t dim) {
    values_.assign(dim, 0.0);
    tracked_.assign(dim, 0);
    nonzeros_.clear();
  }

  const std::vector<size_t>& nonzeros() const { return nonzeros_; }
  double operator[](size_t i) const { return values_[i]; }

  /// Adds `v` at position `i`, tracking it on first touch.
  void Add(size_t i, double v) {
    if (!tracked_[i]) {
      tracked_[i] = 1;
      nonzeros_.push_back(i);
    }
    values_[i] += v;
  }

  /// Overwrites position `i` (a nonzero value registers it).
  void Set(size_t i, double v) {
    if (!tracked_[i] && v != 0.0) {
      tracked_[i] = 1;
      nonzeros_.push_back(i);
    }
    values_[i] = v;
  }

  /// Zeroes and untracks every tracked position. Positions that became
  /// exactly 0.0 through cancellation are tracked until this runs, which
  /// is harmless (they contribute nothing).
  void Clear() {
    for (size_t i : nonzeros_) {
      values_[i] = 0.0;
      tracked_[i] = 0;
    }
    nonzeros_.clear();
  }

 private:
  std::vector<double> values_;
  std::vector<uint8_t> tracked_;
  std::vector<size_t> nonzeros_;
};

}  // namespace pso

#endif  // PSO_SOLVER_SPARSE_MATRIX_H_
