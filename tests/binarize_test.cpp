#include "data/binarize.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace poetbin {
namespace {

// Packs one binary label vector "is class c" for one-vs-all / per-neuron
// distillation targets.
BitVector pack_targets(const std::vector<int>& values) {
  BitVector out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0) out.set(i, true);
  }
  return out;
}

TEST(Binarize, ThresholdAtZeroMatchesBinarySigmoid) {
  const std::vector<float> activations = {-1.0f, 0.0f, 0.5f, -0.1f, 2.0f, -3.0f};
  const BitMatrix bits = binarize_activations(activations, 2, 3);
  EXPECT_FALSE(bits.get(0, 0));
  EXPECT_TRUE(bits.get(0, 1));  // >= 0 maps to 1, as in Kwan's binary sigmoid
  EXPECT_TRUE(bits.get(0, 2));
  EXPECT_FALSE(bits.get(1, 0));
  EXPECT_TRUE(bits.get(1, 1));
  EXPECT_FALSE(bits.get(1, 2));
}

TEST(Binarize, CustomThreshold) {
  const std::vector<float> activations = {0.2f, 0.8f};
  const BitMatrix bits = binarize_activations(activations, 1, 2, 0.5f);
  EXPECT_FALSE(bits.get(0, 0));
  EXPECT_TRUE(bits.get(0, 1));
}

TEST(Binarize, PackTargets) {
  const BitVector bits = pack_targets({0, 1, 1, 0, 1});
  EXPECT_EQ(bits.size(), 5u);
  EXPECT_EQ(testing::popcount(bits), 3u);
  EXPECT_TRUE(bits.get(1));
  EXPECT_FALSE(bits.get(3));
}

TEST(Binarize, ColumnMeans) {
  BitMatrix bits(4, 2);
  bits.set(0, 0, true);
  bits.set(1, 0, true);
  const auto means = testing::column_means(bits);
  EXPECT_DOUBLE_EQ(means[0], 0.5);
  EXPECT_DOUBLE_EQ(means[1], 0.0);
}

}  // namespace
}  // namespace poetbin
