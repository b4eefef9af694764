#include "hw/lut_decompose.h"

#include <gtest/gtest.h>

#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

TEST(SixLutCost, MatchesXilinxMapping) {
  EXPECT_EQ(six_lut_cost(1), 1u);
  EXPECT_EQ(six_lut_cost(6), 1u);
  EXPECT_EQ(six_lut_cost(7), 2u);
  EXPECT_EQ(six_lut_cost(8), 4u);  // the paper: "four 6-input LUTs"
}

TEST(SixLutLevels, DecompositionAddsALevel) {
  EXPECT_EQ(six_lut_levels(6), 1u);
  EXPECT_EQ(six_lut_levels(8), 2u);
}

TEST(Prune, NoPruningWhenAllWeightsMatter) {
  const BitMatrix features = testing::random_bits(400, 32, 1);
  BitVector targets(400);
  for (std::size_t i = 0; i < 400; ++i) {
    targets.set(i, features.get(i, 0) != features.get(i, 9));
  }
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 4, .levels = 1, .total_dts = 4});
  const PruneStats stats = prune_rinc(module);
  EXPECT_EQ(stats.raw_luts, 5u);
  EXPECT_LE(stats.kept_luts, stats.raw_luts);
  EXPECT_LE(stats.kept_6luts, stats.raw_6luts);
}

TEST(Prune, EasyTargetCreatesRemovableMats) {
  // A near-deterministic target: the first boosted DT explains almost all
  // of it and gets a large alpha, the second round faces pure reweighted
  // noise and gets alpha ~ 0 — a dead MAT fanin the synthesizer (and our
  // pruner) removes, exactly the effect described in SS4.3.
  Rng rng(42);
  const BitMatrix features = testing::random_bits(800, 16, 2);
  BitVector targets(800);
  for (std::size_t i = 0; i < 800; ++i) {
    bool label = features.get(i, 5);
    if (rng.next_bool(0.1)) label = !label;
    targets.set(i, label);
  }
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 4, .levels = 1, .total_dts = 2});
  const PruneStats stats = prune_rinc(module);
  EXPECT_LT(stats.kept_6luts, stats.raw_6luts);
  // Raw: 2 DTs + 1 MAT = 3; after pruning the dead DT and collapsing the
  // single-fanin MAT to a wire only 1 LUT remains.
  EXPECT_GT(stats.removed_fraction_6luts(), 0.3);

  // Pruning safety: the module's decisions still track the dominant DT.
  const BitVector predictions = reference::eval_dataset(module, features);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < 800; ++i) {
    if (predictions.get(i) == features.get(i, 5)) ++agree;
  }
  EXPECT_GT(agree, 700u);
}

TEST(Prune, PoetBinIncludesOutputLayer) {
  const BinaryDataset data = testing::prototype_dataset(300, 32, 3);
  const std::size_t p = 4;
  BitMatrix intermediate(data.size(), data.n_classes * p);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      intermediate.set(i, j, data.labels[i] == static_cast<int>(j / p));
    }
  }
  PoetBinConfig config;
  config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 4};
  config.n_classes = data.n_classes;
  config.output.epochs = 30;
  const PoetBin model =
      PoetBin::train(data.features, intermediate, data.labels, config);

  const PruneStats stats = prune_poetbin(model);
  // Raw: 40 modules x 5 LUTs + 80 output LUTs (all arity 4 -> cost 1).
  EXPECT_EQ(stats.raw_luts, 40u * 5u + 80u);
  EXPECT_EQ(stats.raw_6luts, stats.raw_luts);
  EXPECT_GE(stats.kept_6luts, 80u);  // output layer never pruned
}

TEST(Prune, EightInputModulesDecomposeByFour) {
  const BitMatrix features = testing::random_bits(300, 64, 4);
  BitVector targets(300);
  for (std::size_t i = 0; i < 300; ++i) {
    targets.set(i, features.get(i, 0) != features.get(i, 1));
  }
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 8, .levels = 1, .total_dts = 8});
  const PruneStats stats = prune_rinc(module);
  EXPECT_EQ(stats.raw_luts, 9u);
  EXPECT_EQ(stats.raw_6luts, 36u);  // 9 x 4
}

}  // namespace
}  // namespace poetbin
