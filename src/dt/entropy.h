// Weighted entropy utilities shared by the level-wise and classic DTs.
//
// Defined inline: the level-wise DT's candidate scans call these once per
// tree node per candidate (hundreds of thousands of calls per trained LUT),
// so the call overhead is measurable on both the scalar and word-parallel
// training paths.
#pragma once

#include <cmath>
#include <cstddef>

#include "util/check.h"

namespace poetbin {

// Plain H(p) for p in [0,1], in bits.
inline double binary_entropy(double p) {
  POETBIN_CHECK(p >= 0.0 && p <= 1.0);
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

// Binary Shannon entropy of the distribution (w0, w1) in bits, scaled by
// the node's total weight: (w0+w1) * H(w1/(w0+w1)). Zero-weight nodes
// contribute zero. This is the quantity Algorithm 1 accumulates per level.
inline double weighted_node_entropy(double weight_class0,
                                    double weight_class1) {
  POETBIN_CHECK(weight_class0 >= 0.0 && weight_class1 >= 0.0);
  const double total = weight_class0 + weight_class1;
  if (total <= 0.0) return 0.0;
  return total * binary_entropy(weight_class1 / total);
}

// Batched form over a contiguous array of (w0, w1) pairs:
//   init + sum_k weighted_node_entropy(pairs[2k], pairs[2k + 1])
// accumulated in ascending k — the node order of Algorithm 1's level scan,
// so chaining calls through `init` reproduces a single long accumulation
// exactly. LevelDT's candidate scan scores every candidate through it. It
// is plain scalar code on purpose: log2 is not an exact operation, so a
// widened per-node sum would break bit-identity with the scalar scan.
inline double weighted_entropy_sum(const double* pairs, std::size_t n_pairs,
                                   double init) {
  double total = init;
  for (std::size_t k = 0; k < n_pairs; ++k) {
    total += weighted_node_entropy(pairs[2 * k], pairs[2 * k + 1]);
  }
  return total;
}

}  // namespace poetbin
