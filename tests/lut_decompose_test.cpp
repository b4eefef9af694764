#include "hw/lut_decompose.h"

#include <gtest/gtest.h>

#include "hw/netlist_builder.h"
#include "hw/netlist_opt.h"
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

TEST(SixLutCount, SumsCostOverArities) {
  Netlist netlist;
  std::vector<std::size_t> inputs;
  for (std::size_t f = 0; f < 8; ++f) {
    inputs.push_back(netlist.add_input(f, "x" + std::to_string(f)));
  }
  netlist.add_lut({inputs[0], inputs[1]}, BitVector(4), "two");
  netlist.add_lut(inputs, BitVector(256), "eight");
  EXPECT_EQ(six_lut_count(netlist), 1u + 4u);
}

// The synthesizer-pruning analysis is optimize_netlist on the built
// netlist: raw = six_lut_count(built), kept = six_lut_count(optimized).

TEST(Prune, NoPruningWhenAllWeightsMatter) {
  const BitMatrix features = testing::random_bits(400, 32, 1);
  BitVector targets(400);
  for (std::size_t i = 0; i < 400; ++i) {
    targets.set(i, features.get(i, 0) != features.get(i, 9));
  }
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 4, .levels = 1, .total_dts = 4});
  const Netlist built = build_rinc_netlist(module, 32);
  const Netlist optimized = optimize_netlist(built);
  EXPECT_EQ(built.n_luts(), 5u);
  EXPECT_LE(optimized.n_luts(), built.n_luts());
  EXPECT_LE(six_lut_count(optimized), six_lut_count(built));
  EXPECT_TRUE(reference::verify_equivalent(built, optimized, features));
}

TEST(Prune, EasyTargetCreatesRemovableMats) {
  // A near-deterministic target: the first boosted DT explains almost all
  // of it and gets a large alpha, the second round faces pure reweighted
  // noise and gets alpha ~ 0 — a dead MAT fanin the synthesizer (and
  // optimize_netlist) removes, exactly the effect described in SS4.3.
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
  ASSERT_FALSE(lut_input_removable(module.mat_lut().table(), 0));
  ASSERT_TRUE(lut_input_removable(module.mat_lut().table(), 1));

  // Raw: 2 DTs + 1 MAT = 3. The dead fanin's DT goes with it and the
  // single-fanin MAT collapses to a wire; so does the dominant DT, which
  // learned feature 5 alone. The module is a wire to x5.
  const Netlist built = build_rinc_netlist(module, 16);
  NetlistOptStats stats;
  const Netlist optimized = optimize_netlist(built, &stats);
  EXPECT_EQ(six_lut_count(built), 3u);
  EXPECT_EQ(stats.dead_removed, 1u);
  EXPECT_EQ(six_lut_count(optimized), 0u);
  const NetlistNode& output = optimized.node(optimized.outputs()[0]);
  EXPECT_EQ(output.kind, NetlistNode::Kind::kInput);
  EXPECT_EQ(output.input_index, 5u);

  // Pruning safety: the optimized module is the trained module, and its
  // decisions still track the dominant DT.
  const BitVector predictions = reference::eval_dataset(module, features);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < 800; ++i) {
    EXPECT_EQ(optimized.simulate_outputs(features.row(i))[0],
              predictions.get(i));
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

  const PoetBinNetlist built = build_poetbin_netlist(model, 32);
  PoetBinNetlist optimized = built;
  optimized.netlist = optimize_netlist(built.netlist);
  // Raw: 40 modules x 5 LUTs + 80 output LUTs (all arity 4 -> cost 1).
  EXPECT_EQ(six_lut_count(built.netlist), 40u * 5u + 80u);
  EXPECT_LE(six_lut_count(optimized.netlist), six_lut_count(built.netlist));
  // Every class code bit stays an output, in the built order.
  EXPECT_EQ(optimized.netlist.outputs().size(), 80u);
  EXPECT_EQ(optimized.predict_dataset(data.features),
            reference::predict_dataset(model, data.features));
}

TEST(Prune, EightInputModulesDecomposeByFour) {
  const BitMatrix features = testing::random_bits(300, 64, 4);
  BitVector targets(300);
  for (std::size_t i = 0; i < 300; ++i) {
    targets.set(i, features.get(i, 0) != features.get(i, 1));
  }
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 8, .levels = 1, .total_dts = 8});
  const Netlist built = build_rinc_netlist(module, 64);
  EXPECT_EQ(built.n_luts(), 9u);
  EXPECT_EQ(six_lut_count(built), 36u);  // 9 x 4
}

}  // namespace
}  // namespace poetbin
