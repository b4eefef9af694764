// Conversion from dense float activations to packed binary features.
//
// The paper obtains binary features by replacing the ReLU after the last
// convolutional layer with a binary sigmoid (Kwan 1992): forward pass emits
// 1 iff the pre-activation is >= 0. `binarize_activations` applies exactly
// that thresholding to a dense (n x F) activation matrix.
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "util/bit_matrix.h"

namespace poetbin {

// activations: row-major n_rows x n_cols. Bit (r, c) = activations[r*n_cols+c] >= threshold.
BitMatrix binarize_activations(const std::vector<float>& activations,
                               std::size_t n_rows, std::size_t n_cols,
                               float threshold = 0.0f);

}  // namespace poetbin
