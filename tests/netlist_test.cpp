#include "hw/netlist.h"

#include <gtest/gtest.h>

#include "core/poetbin.h"
#include "hw/netlist_builder.h"
#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

using testing::random_bits;
using testing::targets_from;

TEST(Netlist, SimulatesAndGate) {
  Netlist netlist;
  const auto a = netlist.add_input(0, "a");
  const auto b = netlist.add_input(1, "b");
  BitVector and_table(4);
  and_table.set(3, true);
  const auto g = netlist.add_lut({a, b}, and_table, "and");
  netlist.mark_output(g);

  for (std::size_t combo = 0; combo < 4; ++combo) {
    BitVector input(2);
    input.set(0, combo & 1);
    input.set(1, (combo >> 1) & 1);
    EXPECT_EQ(netlist.simulate_outputs(input)[0], combo == 3);
  }
}

TEST(Netlist, DepthCountsLutLevels) {
  Netlist netlist;
  const auto a = netlist.add_input(0, "a");
  BitVector id_table(2);
  id_table.set(1, true);
  const auto l1 = netlist.add_lut({a}, id_table, "l1");
  const auto l2 = netlist.add_lut({l1}, id_table, "l2");
  const auto l3 = netlist.add_lut({l2, a}, BitVector(4, true), "l3");
  netlist.mark_output(l3);
  EXPECT_EQ(netlist.depth(), 3u);
  EXPECT_EQ(netlist.n_luts(), 3u);
  EXPECT_EQ(netlist.n_inputs(), 1u);
}

TEST(Netlist, ArityHistogram) {
  Netlist netlist;
  const auto a = netlist.add_input(0, "a");
  const auto b = netlist.add_input(1, "b");
  netlist.add_lut({a}, BitVector(2), "u1");
  netlist.add_lut({a, b}, BitVector(4), "u2");
  netlist.add_lut({b, a}, BitVector(4), "u3");
  const auto histogram = netlist.arity_histogram();
  EXPECT_EQ(histogram.at(1), 1u);
  EXPECT_EQ(histogram.at(2), 2u);
}

TEST(Netlist, FaninMustPrecede) {
  Netlist netlist;
  netlist.add_input(0, "a");
  EXPECT_DEATH(netlist.add_lut({5}, BitVector(2), "bad"), "");
}

TEST(RincNetlist, MatchesModuleBitExactly) {
  const BitMatrix features = random_bits(300, 32, 1);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return testing::popcount_prefix(x, 10) >= 5;
  });
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 4, .levels = 2, .total_dts = 12});
  const Netlist netlist = build_rinc_netlist(module, 32);
  EXPECT_EQ(netlist.n_luts(), module.lut_count());
  EXPECT_EQ(netlist.depth(), module.depth_in_luts());
  for (std::size_t i = 0; i < features.rows(); ++i) {
    const BitVector row = features.row(i);
    EXPECT_EQ(netlist.simulate_outputs(row)[0],
              reference::eval_module(module, row))
        << "row " << i;
  }
}

TEST(PoetBinNetlist, MatchesModelBitExactly) {
  // Small end-to-end model; netlist predictions must equal model predictions
  // on every test row — the paper's FPGA-vs-PyTorch testbench check.
  const BinaryDataset data = testing::prototype_dataset(500, 48, 2);
  const std::size_t p = 4;
  BitMatrix intermediate(data.size(), data.n_classes * p);
  Rng rng(3);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      const bool is_class =
          data.labels[i] == static_cast<int>(j / p);
      intermediate.set(i, j, is_class != (rng.next_double() < 0.05));
    }
  }
  PoetBinConfig config;
  config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 4};
  config.n_classes = data.n_classes;
  config.output.epochs = 100;
  const PoetBin model =
      PoetBin::train(data.features, intermediate, data.labels, config);

  const PoetBinNetlist netlist = build_poetbin_netlist(model, 48);
  EXPECT_EQ(netlist.netlist.n_luts(), model.lut_count());
  EXPECT_EQ(netlist.n_classes(), 10u);
  EXPECT_EQ(netlist.quant_bits, 8u);
  EXPECT_EQ(netlist.netlist.outputs().size(), 80u);

  const auto model_predictions =
      reference::predict_dataset(model, data.features);
  const auto netlist_predictions = netlist.predict_dataset(data.features);
  EXPECT_EQ(model_predictions, netlist_predictions);
}

TEST(PoetBinNetlist, CodeBitsReconstructNeuronCodes) {
  const BinaryDataset data = testing::prototype_dataset(200, 32, 4);
  const std::size_t p = 3;
  BitMatrix intermediate(data.size(), data.n_classes * p);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      intermediate.set(i, j, data.features.get(i, j % 32));
    }
  }
  PoetBinConfig config;
  config.rinc = {.lut_inputs = p, .levels = 0, .total_dts = 1};
  config.n_classes = data.n_classes;
  config.output.epochs = 50;
  const PoetBin model =
      PoetBin::train(data.features, intermediate, data.labels, config);
  const PoetBinNetlist netlist = build_poetbin_netlist(model, 32);

  // For each example, decode each class's code bits and compare with the
  // model's combo-indexed code table.
  const BitMatrix rinc_bits = reference::rinc_outputs(model, data.features);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto codes = netlist.netlist.simulate_outputs(data.features.row(i));
    for (std::size_t c = 0; c < model.n_classes(); ++c) {
      std::size_t combo = 0;
      for (std::size_t j = 0; j < p; ++j) {
        if (rinc_bits.get(i, c * p + j)) combo |= std::size_t{1} << j;
      }
      std::uint32_t code = 0;
      for (std::size_t k = 0; k < netlist.quant_bits; ++k) {
        if (codes[c * netlist.quant_bits + k]) code |= 1u << k;
      }
      EXPECT_EQ(code, model.output_neurons()[c].codes[combo]);
    }
  }
}

}  // namespace
}  // namespace poetbin
