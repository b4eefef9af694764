#include "boost/mat.h"

#include <gtest/gtest.h>

#include "hw/netlist_opt.h"
#include "util/rng.h"

namespace poetbin {
namespace {

TEST(Mat, SingleInputIsIdentityForPositiveWeight) {
  const MatModule mat({1.0});
  EXPECT_FALSE(mat.eval_combo(0));
  EXPECT_TRUE(mat.eval_combo(1));
}

TEST(Mat, SingleInputNegativeWeightInverts) {
  const MatModule mat({-1.0});
  EXPECT_TRUE(mat.eval_combo(0));
  EXPECT_FALSE(mat.eval_combo(1));
}

TEST(Mat, MajorityOfEqualWeights) {
  const MatModule mat({1.0, 1.0, 1.0});
  // Majority with ties to 1: >= 1.5 of 3.
  EXPECT_FALSE(mat.eval_combo(0b000));
  EXPECT_FALSE(mat.eval_combo(0b001));
  EXPECT_TRUE(mat.eval_combo(0b011));
  EXPECT_TRUE(mat.eval_combo(0b111));
}

TEST(Mat, TieResolvesToOne) {
  const MatModule mat({1.0, 1.0});
  // combo 0b01: margin = 1 - 1 = 0 -> comparator outputs 1 (>=).
  EXPECT_TRUE(mat.eval_combo(0b01));
  EXPECT_TRUE(mat.eval_combo(0b10));
}

TEST(Mat, ThresholdFormulationMatchesSignFormulation) {
  // Paper formulation: sum w_i b_i >= (sum w_i)/2 must equal
  // sign(sum w_i (2b_i - 1)) >= 0 for every combo.
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> weights(5);
    for (auto& w : weights) w = rng.uniform(-2.0, 3.0);
    const MatModule mat(weights);
    const double threshold = mat.threshold();
    for (std::size_t combo = 0; combo < 32; ++combo) {
      double weighted_sum = 0.0;
      for (std::size_t i = 0; i < 5; ++i) {
        if ((combo >> i) & 1) weighted_sum += weights[i];
      }
      EXPECT_EQ(mat.eval_combo(combo), weighted_sum >= threshold)
          << "trial " << trial << " combo " << combo;
    }
  }
}

TEST(Mat, TableMatchesEvalCombo) {
  const MatModule mat({0.5, -1.0, 2.0});
  const BitVector table = mat.to_table();
  ASSERT_EQ(table.size(), 8u);
  for (std::size_t combo = 0; combo < 8; ++combo) {
    EXPECT_EQ(table.get(combo), mat.eval_combo(combo));
  }
}

TEST(Mat, DominantWeightMakesOthersRemovable) {
  // |w0| exceeds the sum of all others: only input 0 matters.
  const MatModule mat({10.0, 0.5, 0.5, 0.5});
  const BitVector table = mat.to_table();
  EXPECT_FALSE(lut_input_removable(table, 0));
  EXPECT_TRUE(lut_input_removable(table, 1));
  EXPECT_TRUE(lut_input_removable(table, 2));
  EXPECT_TRUE(lut_input_removable(table, 3));
}

TEST(Mat, BalancedWeightsNothingRemovable) {
  const MatModule mat({1.0, 1.0, 1.0});
  const BitVector table = mat.to_table();
  for (std::size_t i = 0; i < mat.arity(); ++i) {
    EXPECT_FALSE(lut_input_removable(table, i));
  }
}

TEST(Mat, RemovableInputTrulyNeverFlipsOutput) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> weights(6);
    for (auto& w : weights) w = rng.uniform(-1.0, 1.0);
    if (trial % 3 == 0) weights[0] = 8.0;  // force some removable cases
    const MatModule mat(weights);
    const BitVector table = mat.to_table();
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (!lut_input_removable(table, i)) continue;
      for (std::size_t combo = 0; combo < 64; ++combo) {
        EXPECT_EQ(mat.eval_combo(combo),
                  mat.eval_combo(combo ^ (std::size_t{1} << i)));
      }
    }
  }
}

TEST(Mat, ZeroWeightInputIsRemovable) {
  const MatModule mat({1.0, 0.0, -1.0});
  EXPECT_TRUE(lut_input_removable(mat.to_table(), 1));
}

}  // namespace
}  // namespace poetbin
