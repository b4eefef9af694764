// MAT module: the Multiply-Add-Threshold combiner of Fig. 2.
//
// Given G weak-classifier output bits b_i and their Adaboost weights w_i,
// the MAT output is sign(sum_i w_i (2 b_i - 1)) — equivalently
// sum_i w_i b_i >= (sum_i w_i) / 2, the thresholded weighted sum the paper
// describes. Because the inputs are G bits, the whole operation folds into
// a single G-input LUT built by enumerating all 2^G combinations of the
// *trained* weights; the LUT is the artefact that ships to hardware, the
// float path exists only for training and cross-checks.
#pragma once

#include <cstddef>
#include <vector>

#include "util/bitvector.h"

namespace poetbin {

class MatModule {
 public:
  MatModule() = default;
  explicit MatModule(std::vector<double> weights);

  std::size_t arity() const { return weights_.size(); }
  const std::vector<double>& weights() const { return weights_; }

  // Threshold in the {0,1} formulation: sum_i w_i b_i >= threshold().
  double threshold() const;

  // Signed margin sum_i w_i (2 b_i - 1) for the combination encoded as a
  // bitmask (bit i = weak classifier i's output).
  double margin(std::size_t combo) const;

  // Output for a combination; ties (margin == 0) resolve to 1, matching the
  // ">=" comparator in Fig. 2.
  bool eval_combo(std::size_t combo) const { return margin(combo) >= 0.0; }

  // Truth table over all 2^G combinations (LUT contents).
  BitVector to_table() const;

 private:
  std::vector<double> weights_;
};

}  // namespace poetbin
