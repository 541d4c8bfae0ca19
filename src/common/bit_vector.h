// Packed bit vector: one bit per index, 64 to a word.
//
// The library's one representation of a subset of a small index domain,
// such as a count-CSP constraint mask or a census table cell over the
// person domain. Bits past size() in the last word are always clear, so
// a word-wise OR needs no tail masking, and the set-bit walk touches one
// word per 64 indices instead of testing each.

#ifndef PSO_COMMON_BIT_VECTOR_H_
#define PSO_COMMON_BIT_VECTOR_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace pso {

/// A fixed-size set of indices in [0, size()), stored as packed words.
class BitVector {
 public:
  BitVector() = default;

  /// `size` bits, all clear.
  explicit BitVector(size_t size) : size_(size), words_((size + 63) / 64) {}

  size_t size() const { return size_; }

  void Set(size_t i) {
    PSO_CHECK(i < size_);
    words_[i / 64] |= uint64_t{1} << (i % 64);
  }

  bool Test(size_t i) const {
    PSO_CHECK(i < size_);
    return ((words_[i / 64] >> (i % 64)) & 1) != 0;
  }

  /// Adds every index of `other` (which must have the same size).
  BitVector& operator|=(const BitVector& other) {
    PSO_CHECK(other.size_ == size_);
    for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
    return *this;
  }

  /// Calls `f(i)` for every index i set here and clear in `excluded`
  /// (which must have the same size), in increasing order.
  template <typename F>
  void ForEachSetExcept(const BitVector& excluded, F&& f) const {
    PSO_CHECK(excluded.size_ == size_);
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t word = words_[w] & ~excluded.words_[w]; word != 0;
           word &= word - 1) {
        f(w * 64 + static_cast<size_t>(std::countr_zero(word)));
      }
    }
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace pso

#endif  // PSO_COMMON_BIT_VECTOR_H_
