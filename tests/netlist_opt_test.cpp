#include "hw/netlist_opt.h"

#include <gtest/gtest.h>

#include "hw/vhdl.h"

#include "core/poetbin.h"
#include "hw/netlist_builder.h"
#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

using reference::verify_equivalent;
using testing::random_bits;

// All 2^k input combinations as a BitMatrix (for exhaustive equivalence).
BitMatrix exhaustive_vectors(std::size_t n_inputs) {
  const std::size_t n = std::size_t{1} << n_inputs;
  BitMatrix vectors(n, n_inputs);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t bit = 0; bit < n_inputs; ++bit) {
      vectors.set(row, bit, (row >> bit) & 1);
    }
  }
  return vectors;
}

TEST(LutInputRemovable, DetectsIgnoredInput) {
  // f(a, b) = a: input 1 (b) is removable, input 0 (a) is not.
  BitVector table(4);
  table.set(1, true);
  table.set(3, true);
  EXPECT_FALSE(lut_input_removable(table, 0));
  EXPECT_TRUE(lut_input_removable(table, 1));
}

TEST(OptimizeNetlist, RemovesDeadLogic) {
  Netlist netlist;
  const auto a = netlist.add_input(0, "a");
  const auto b = netlist.add_input(1, "b");
  BitVector and_table(4);
  and_table.set(3, true);
  const auto live = netlist.add_lut({a, b}, and_table, "live");
  netlist.add_lut({a, b}, and_table, "dead");  // never marked as output
  netlist.mark_output(live);

  NetlistOptStats stats;
  const Netlist optimized = optimize_netlist(netlist, &stats);
  EXPECT_EQ(stats.dead_removed, 1u);
  EXPECT_EQ(optimized.n_luts(), 1u);
  EXPECT_TRUE(verify_equivalent(netlist, optimized, exhaustive_vectors(2)));
}

TEST(OptimizeNetlist, DisconnectsRemovableInput) {
  Netlist netlist;
  const auto a = netlist.add_input(0, "a");
  const auto b = netlist.add_input(1, "b");
  // f(a, b) = a, wastefully encoded as a 2-input LUT.
  BitVector table(4);
  table.set(1, true);
  table.set(3, true);
  const auto lut = netlist.add_lut({a, b}, table, "wasteful");
  netlist.mark_output(lut);

  NetlistOptStats stats;
  const Netlist optimized = optimize_netlist(netlist, &stats);
  EXPECT_EQ(stats.inputs_disconnected, 1u);
  // After dropping b, the LUT is the identity on a -> collapses to a wire.
  EXPECT_EQ(stats.wires_collapsed, 1u);
  EXPECT_EQ(optimized.n_luts(), 0u);
  EXPECT_TRUE(verify_equivalent(netlist, optimized, exhaustive_vectors(2)));
}

TEST(OptimizeNetlist, FoldsConstantLut) {
  Netlist netlist;
  const auto a = netlist.add_input(0, "a");
  const auto b = netlist.add_input(1, "b");
  const auto constant = netlist.add_lut({a}, BitVector(2, true), "always1");
  BitVector and_table(4);
  and_table.set(3, true);
  // AND(always1, b) == b.
  const auto gate = netlist.add_lut({constant, b}, and_table, "and");
  netlist.mark_output(gate);

  NetlistOptStats stats;
  const Netlist optimized = optimize_netlist(netlist, &stats);
  EXPECT_TRUE(verify_equivalent(netlist, optimized, exhaustive_vectors(2)));
  EXPECT_EQ(optimized.n_luts(), 0u);  // gate collapses into a wire to b
}

TEST(OptimizeNetlist, ConstantOutputMaterialises) {
  Netlist netlist;
  const auto a = netlist.add_input(0, "a");
  // XOR(a, a) via two wires would be constant 0; emulate with a LUT whose
  // table is all-zero.
  const auto zero = netlist.add_lut({a}, BitVector(2), "zero");
  netlist.mark_output(zero);
  NetlistOptStats stats;
  const Netlist optimized = optimize_netlist(netlist, &stats);
  ASSERT_EQ(optimized.outputs().size(), 1u);
  EXPECT_TRUE(verify_equivalent(netlist, optimized, exhaustive_vectors(1)));
}

TEST(OptimizeNetlist, KeepsInverters) {
  Netlist netlist;
  const auto a = netlist.add_input(0, "a");
  BitVector not_table(2);
  not_table.set(0, true);
  const auto inverter = netlist.add_lut({a}, not_table, "inv");
  netlist.mark_output(inverter);
  const Netlist optimized = optimize_netlist(netlist);
  EXPECT_EQ(optimized.n_luts(), 1u);
  EXPECT_TRUE(verify_equivalent(netlist, optimized, exhaustive_vectors(1)));
}

TEST(OptimizeNetlist, TrainedModelStaysEquivalent) {
  // The real end-to-end property: optimizing a trained classifier netlist
  // changes nothing observable. Mirrors the paper's note that the removed
  // LUTs "do not affect the result".
  const BinaryDataset data = testing::prototype_dataset(400, 40, 5);
  const std::size_t p = 4;
  BitMatrix intermediate(data.size(), data.n_classes * p);
  Rng rng(6);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      const bool is_class = data.labels[i] == static_cast<int>(j / p);
      intermediate.set(i, j, is_class != rng.next_bool(0.04));
    }
  }
  PoetBinConfig config;
  config.rinc = {.lut_inputs = p, .levels = 2, .total_dts = 8};
  config.n_classes = data.n_classes;
  config.output.epochs = 40;
  const PoetBin model =
      PoetBin::train(data.features, intermediate, data.labels, config);
  const PoetBinNetlist built = build_poetbin_netlist(model, 40);

  NetlistOptStats stats;
  const Netlist optimized = optimize_netlist(built.netlist, &stats);
  EXPECT_LE(optimized.n_luts(), built.netlist.n_luts());
  EXPECT_TRUE(verify_equivalent(built.netlist, optimized, data.features));
}

TEST(OptimizeNetlist, DepthNeverIncreases) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const BitMatrix features = random_bits(64, 12, 100 + seed);
    BitVector targets(64);
    for (std::size_t i = 0; i < 64; ++i) {
      targets.set(i, features.get(i, seed % 12));
    }
    const RincModule module = RincModule::train(
        features, targets, {}, {.lut_inputs = 3, .levels = 2, .total_dts = 6});
    const Netlist built = build_rinc_netlist(module, 12);
    const Netlist optimized = optimize_netlist(built);
    EXPECT_LE(optimized.depth(), built.depth()) << "seed " << seed;
    EXPECT_TRUE(verify_equivalent(built, optimized, features));
  }
}

TEST(OptimizeNetlist, VhdlEmitsConstantsFromOptimizedNetlist) {
  // A one-class classifier with a one-bit code that is constant 0.
  PoetBinNetlist classifier;
  classifier.quant_bits = 1;
  const auto a = classifier.netlist.add_input(0, "a");
  classifier.netlist.mark_output(
      classifier.netlist.add_lut({a}, BitVector(2), "z"));
  classifier.netlist = optimize_netlist(classifier.netlist);
  const std::string vhdl =
      generate_vhdl(classifier, {.entity_name = "const_entity"});
  EXPECT_NE(vhdl.find("entity const_entity is"), std::string::npos);
  EXPECT_NE(vhdl.find("n_const0 <= '0';"), std::string::npos);
  EXPECT_NE(vhdl.find("score0(0) <= n_const0;"), std::string::npos);
  EXPECT_EQ(vhdl.find("constant TBL_"), std::string::npos);
}

TEST(SimulateDataset, MatchesScalarSimulation) {
  const BitMatrix features = random_bits(517, 24, 7);  // odd size: tail word
  BitVector targets(517);
  for (std::size_t i = 0; i < 517; ++i) {
    targets.set(i, features.get(i, 3) != features.get(i, 11));
  }
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 4, .levels = 2, .total_dts = 8});
  const Netlist netlist = build_rinc_netlist(module, 24);

  const auto columns = netlist.simulate_dataset(features);
  ASSERT_EQ(columns.size(), netlist.n_nodes());
  for (std::size_t i = 0; i < features.rows(); ++i) {
    const auto scalar = netlist.simulate(features.row(i));
    for (std::size_t node = 0; node < scalar.size(); ++node) {
      ASSERT_EQ(columns[node].get(i), scalar[node])
          << "node " << node << " row " << i;
    }
  }
}

TEST(SimulateDataset, OutputsMatchAndTailIsMasked) {
  const BitMatrix features = random_bits(130, 8, 8);
  Netlist netlist;
  std::vector<std::size_t> inputs;
  for (std::size_t f = 0; f < 8; ++f) {
    inputs.push_back(netlist.add_input(f, "x" + std::to_string(f)));
  }
  Rng rng(9);
  BitVector table(16);
  for (std::size_t i = 0; i < 16; ++i) table.set(i, rng.next_bool());
  const auto lut =
      netlist.add_lut({inputs[0], inputs[2], inputs[5], inputs[7]}, table, "g");
  netlist.mark_output(lut);

  const auto outputs = netlist.simulate_dataset_outputs(features);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].size(), 130u);
  std::size_t expected_popcount = 0;
  for (std::size_t i = 0; i < 130; ++i) {
    const bool value = netlist.simulate_outputs(features.row(i))[0];
    EXPECT_EQ(outputs[0].get(i), value);
    if (value) ++expected_popcount;
  }
  // Tail masking: popcount must not see garbage beyond 130 bits.
  EXPECT_EQ(testing::popcount(outputs[0]), expected_popcount);
}

}  // namespace
}  // namespace poetbin
