// Feature-major packed binary matrix.
//
// Stores an (n_examples x n_features) binary dataset as one packed
// BitVector per *feature* ("column"). This layout is what makes the
// level-wise decision tree (Algorithm 1) fast: scoring a candidate feature
// is one linear scan over that feature's packed column, and evaluating a
// trained LUT over the whole dataset touches only the P selected columns.
// Column words are 64-byte-aligned (BitVector uses WordVec storage), so the
// SIMD word backends can run full-width loads over any column
// unconditionally.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/bitvector.h"
#include "util/check.h"

namespace poetbin {

class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t n_rows, std::size_t n_cols)
      : n_rows_(n_rows), cols_(n_cols, BitVector(n_rows)) {}

  // The matrix whose row i is *rows[i]: each row's set bits scattered into
  // the feature-major columns. Every row must have the same width (checked);
  // no rows gives an empty matrix.
  static BitMatrix from_rows(std::span<const BitVector* const> rows);

  std::size_t rows() const { return n_rows_; }
  std::size_t cols() const { return cols_.size(); }

  bool get(std::size_t row, std::size_t col) const {
    POETBIN_CHECK(col < cols_.size());
    return cols_[col].get(row);
  }

  void set(std::size_t row, std::size_t col, bool value) {
    POETBIN_CHECK(col < cols_.size());
    cols_[col].set(row, value);
  }

  const BitVector& column(std::size_t col) const {
    POETBIN_CHECK(col < cols_.size());
    return cols_[col];
  }

  // Packed words of one feature column; word w holds examples
  // [64w, 64w + 64). This is the batch engine's unit of access.
  std::span<const std::uint64_t> column_words(std::size_t col) const {
    POETBIN_CHECK(col < cols_.size());
    return cols_[col].word_span();
  }

  // Words per column (shared by every column).
  std::size_t word_count() const { return BitVector::words_needed(n_rows_); }

  BitVector& column(std::size_t col) {
    POETBIN_CHECK(col < cols_.size());
    return cols_[col];
  }

  // One example's bits gathered across all columns (row-major view).
  BitVector row(std::size_t r) const {
    BitVector out(cols_.size());
    for (std::size_t c = 0; c < cols_.size(); ++c) out.set(c, cols_[c].get(r));
    return out;
  }

  // New matrix containing the given subset of rows, in the given order.
  BitMatrix select_rows(const std::vector<std::size_t>& row_indices) const;

  // Append one example given its dense row bits (size must equal cols()).
  void append_row(const std::vector<bool>& bits);

  bool operator==(const BitMatrix& other) const {
    return n_rows_ == other.n_rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t n_rows_ = 0;
  std::vector<BitVector> cols_;
};

}  // namespace poetbin
