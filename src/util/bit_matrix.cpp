#include "util/bit_matrix.h"

#include <bit>

namespace poetbin {

BitMatrix BitMatrix::from_rows(std::span<const BitVector* const> rows) {
  if (rows.empty()) return {};
  const std::size_t n_cols = rows[0]->size();
  BitMatrix out(rows.size(), n_cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const BitVector& row = *rows[r];
    POETBIN_CHECK_MSG(row.size() == n_cols,
                      "every row of a matrix must have the same width");
    const std::uint64_t row_bit = 1ULL << (r & 63);
    const std::size_t row_word = r >> 6;
    for (std::size_t w = 0; w < row.word_count(); ++w) {
      std::uint64_t m = row.words()[w];
      if (w + 1 == row.word_count()) m &= BitVector::tail_word_mask(n_cols);
      while (m != 0) {
        const std::size_t c =
            w * 64 + static_cast<std::size_t>(std::countr_zero(m));
        out.cols_[c].words()[row_word] |= row_bit;
        m &= m - 1;
      }
    }
  }
  return out;
}

BitMatrix BitMatrix::select_rows(const std::vector<std::size_t>& row_indices) const {
  BitMatrix out(row_indices.size(), cols_.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    const BitVector& src = cols_[c];
    BitVector& dst = out.cols_[c];
    for (std::size_t r = 0; r < row_indices.size(); ++r) {
      POETBIN_CHECK(row_indices[r] < n_rows_);
      dst.set(r, src.get(row_indices[r]));
    }
  }
  return out;
}

void BitMatrix::append_row(const std::vector<bool>& bits) {
  POETBIN_CHECK(bits.size() == cols_.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].push_back(bits[c]);
  }
  ++n_rows_;
}

}  // namespace poetbin
