#include "hw/netlist.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/poetbin.h"
#include "hw/netlist_builder.h"
#include "reference/scalar_reference.h"
#include "test_util.h"
#include "util/word_backend.h"

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

TEST(Netlist, FaninBeyondKernelArityDies) {
  Netlist netlist;
  netlist.add_input(0, "a");
  EXPECT_DEATH(netlist.add_lut(std::vector<std::size_t>(kMaxLutArity + 1, 0),
                               BitVector(2), "wide"),
               "kMaxLutArity");
}

// simulate_dataset runs every node through WordOps::lut_reduce. Wide nodes
// (7-12 fanins, the kernel's stacked 64-entry subtrees) over inputs and
// earlier LUTs must match the per-example walk on every row and backend,
// at row counts that leave a ragged last word.
TEST(Netlist, DatasetSimulationMatchesPerExampleOnWideNodes) {
  testing::BackendGuard guard;
  Rng rng(17);
  constexpr std::size_t kInputs = 24;
  Netlist netlist;
  for (std::size_t i = 0; i < kInputs; ++i) {
    netlist.add_input(i, "in" + std::to_string(i));
  }
  for (std::size_t k = 7; k <= 12; ++k) {
    for (std::size_t rep = 0; rep < 2; ++rep) {
      std::vector<std::size_t> fanins(k);
      for (auto& f : fanins) f = rng.next_index(netlist.n_nodes());
      BitVector table(std::size_t{1} << k);
      for (std::size_t a = 0; a < table.size(); ++a) {
        table.set(a, rng.next_bool());
      }
      netlist.mark_output(
          netlist.add_lut(std::move(fanins), std::move(table), "lut"));
    }
  }
  for (const std::size_t n : {1, 63, 64, 65, 130, 517}) {
    const BitMatrix features = random_bits(n, kInputs, n);
    std::vector<std::vector<bool>> want;
    for (std::size_t i = 0; i < n; ++i) {
      want.push_back(netlist.simulate(features.row(i)));
    }
    for (const auto backend : available_word_backends()) {
      set_word_backend(backend);
      const std::vector<BitVector> got = netlist.simulate_dataset(features);
      for (std::size_t id = kInputs; id < netlist.n_nodes(); ++id) {
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < n; ++i) {
          mismatches += got[id].get(i) != want[i][id] ? 1 : 0;
        }
        EXPECT_EQ(mismatches, 0u) << word_backend_name(backend) << " node "
                                  << id << " n=" << n;
        EXPECT_EQ(got[id].words()[got[id].word_count() - 1] &
                      ~BitVector::tail_word_mask(n),
                  0u)
            << "tail bits set, node " << id << " n=" << n;
      }
    }
  }
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
