#include "hw/vhdl.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace poetbin {
namespace {

// Minimal trained classifier for generator tests.
struct Fixture {
  BinaryDataset data;
  PoetBin model;
  PoetBinNetlist netlist;

  Fixture() {
    data = testing::prototype_dataset(200, 24, 11);
    const std::size_t p = 3;
    BitMatrix intermediate(data.size(), data.n_classes * p);
    for (std::size_t i = 0; i < data.size(); ++i) {
      for (std::size_t j = 0; j < intermediate.cols(); ++j) {
        intermediate.set(i, j,
                         data.labels[i] == static_cast<int>(j / p));
      }
    }
    PoetBinConfig config;
    config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 3};
    config.n_classes = data.n_classes;
    config.output.epochs = 40;
    config.output.quant_bits = 4;
    model = PoetBin::train(data.features, intermediate, data.labels, config);
    netlist = build_poetbin_netlist(model, data.n_features());
  }
};

std::size_t count_occurrences(const std::string& text, const std::string& what) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = text.find(what, pos)) != std::string::npos) {
    ++count;
    pos += what.size();
  }
  return count;
}

TEST(Vhdl, EntityStructure) {
  const Fixture fx;
  const std::string vhdl = generate_vhdl(fx.netlist);
  EXPECT_NE(vhdl.find("entity poetbin_classifier is"), std::string::npos);
  EXPECT_NE(vhdl.find("end entity poetbin_classifier;"), std::string::npos);
  EXPECT_NE(vhdl.find("architecture lut_network"), std::string::npos);
  EXPECT_NE(vhdl.find("x : in  std_logic_vector(23 downto 0)"),
            std::string::npos);
  // One score port per class, 4-bit each.
  for (int c = 0; c < 10; ++c) {
    EXPECT_NE(vhdl.find("score" + std::to_string(c) +
                        " : out std_logic_vector(3 downto 0)"),
              std::string::npos);
  }
}

TEST(Vhdl, OneConstantPerLut) {
  const Fixture fx;
  const std::string vhdl = generate_vhdl(fx.netlist);
  EXPECT_EQ(count_occurrences(vhdl, "constant TBL_"),
            fx.netlist.netlist.n_luts());
  EXPECT_EQ(count_occurrences(vhdl, "to_integer(unsigned(a_"),
            fx.netlist.netlist.n_luts());
}

TEST(Vhdl, TableLiteralsMatchTables) {
  const Fixture fx;
  const std::string vhdl = generate_vhdl(fx.netlist);
  // Spot-check the first LUT node's table literal (MSB-first bit string).
  const Netlist& netlist = fx.netlist.netlist;
  for (std::size_t id = 0; id < netlist.n_nodes(); ++id) {
    const NetlistNode& node = netlist.node(id);
    if (node.kind != NetlistNode::Kind::kLut) continue;
    std::string expected;
    for (std::size_t i = node.table.size(); i-- > 0;) {
      expected.push_back(node.table.get(i) ? '1' : '0');
    }
    EXPECT_NE(vhdl.find("\"" + expected + "\";"), std::string::npos)
        << "table of " << node.name;
    break;
  }
}

TEST(Vhdl, RincEntityGenerates) {
  const BitMatrix features = testing::random_bits(100, 16, 12);
  BitVector targets(100);
  for (std::size_t i = 0; i < 100; ++i) targets.set(i, features.get(i, 3));
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 3, .levels = 1, .total_dts = 3});
  // The module exported as a one-class classifier whose one-bit code is
  // the module's output.
  const PoetBinNetlist netlist{build_rinc_netlist(module, 16), 1};
  const std::string vhdl = generate_vhdl(netlist, {.entity_name = "my_rinc"});
  EXPECT_NE(vhdl.find("entity my_rinc is"), std::string::npos);
  EXPECT_NE(vhdl.find("score0 : out std_logic_vector(0 downto 0)"),
            std::string::npos);
  EXPECT_EQ(count_occurrences(vhdl, "constant TBL_"), module.lut_count());
}

TEST(Vhdl, SingleFaninAddressIsElementZero) {
  // An inverter, which optimize_netlist keeps and exports ship: its one-bit
  // address is a std_logic, so it is assigned to element 0 of the vector.
  PoetBinNetlist classifier;
  classifier.quant_bits = 1;
  const auto a = classifier.netlist.add_input(0, "a");
  BitVector table(2);
  table.set(0, true);
  classifier.netlist.mark_output(classifier.netlist.add_lut({a}, table, "inv"));
  const std::string vhdl = generate_vhdl(classifier);
  EXPECT_NE(vhdl.find("a_inv(0) <= x(0);"), std::string::npos);
}

TEST(Vhdl, TestbenchEmbedsVectorsAndAssertions) {
  const Fixture fx;
  VhdlOptions options;
  options.testbench_vectors = 5;
  const std::string tb = generate_testbench(fx.netlist, fx.data.features, options);
  EXPECT_NE(tb.find("entity poetbin_classifier_tb is"), std::string::npos);
  EXPECT_EQ(count_occurrences(tb, "x <= \""), 5u);
  // 10 classes x 5 vectors assertions.
  EXPECT_EQ(count_occurrences(tb, "assert score"), 50u);
  EXPECT_NE(tb.find("report \"testbench completed: 5 vectors checked\""),
            std::string::npos);
}

TEST(Vhdl, TestbenchExpectationsMatchSimulator) {
  const Fixture fx;
  VhdlOptions options;
  options.testbench_vectors = 3;
  const std::string tb = generate_testbench(fx.netlist, fx.data.features, options);
  // The expected score for vector 0 / class 0 must equal the simulated
  // code: class 0's bits are the first quant_bits outputs.
  const auto codes =
      fx.netlist.netlist.simulate_outputs(fx.data.features.row(0));
  std::string expected;
  for (std::size_t k = fx.netlist.quant_bits; k-- > 0;) {
    expected.push_back(codes[k] ? '1' : '0');
  }
  EXPECT_NE(tb.find("assert score0 = \"" + expected + "\""), std::string::npos);
}

}  // namespace
}  // namespace poetbin
