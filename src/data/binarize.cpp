#include "data/binarize.h"

namespace poetbin {

BitMatrix binarize_activations(const std::vector<float>& activations,
                               std::size_t n_rows, std::size_t n_cols,
                               float threshold) {
  POETBIN_CHECK(activations.size() == n_rows * n_cols);
  BitMatrix bits(n_rows, n_cols);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const float* row = activations.data() + r * n_cols;
    for (std::size_t c = 0; c < n_cols; ++c) {
      if (row[c] >= threshold) bits.set(r, c, true);
    }
  }
  return bits;
}

}  // namespace poetbin
