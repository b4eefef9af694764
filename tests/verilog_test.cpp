#include "hw/verilog.h"

#include <gtest/gtest.h>

#include "hw/netlist_opt.h"
#include "test_util.h"

namespace poetbin {
namespace {

std::size_t count_occurrences(const std::string& text, const std::string& what) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = text.find(what, pos)) != std::string::npos) {
    ++count;
    pos += what.size();
  }
  return count;
}

Netlist trained_rinc() {
  const BitMatrix features = testing::random_bits(200, 16, 1);
  BitVector targets(200);
  for (std::size_t i = 0; i < 200; ++i) {
    targets.set(i, features.get(i, 2) && features.get(i, 9));
  }
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 3, .levels = 1, .total_dts = 3});
  return build_rinc_netlist(module, 16);
}

TEST(Verilog, RincModuleStructure) {
  // One trained module, exported as a one-class classifier whose one-bit
  // code is the module's output.
  const PoetBinNetlist netlist{trained_rinc(), 1};
  const std::string verilog =
      generate_verilog(netlist, {.module_name = "my_rinc"});
  EXPECT_NE(verilog.find("module my_rinc ("), std::string::npos);
  EXPECT_NE(verilog.find("endmodule"), std::string::npos);
  EXPECT_NE(verilog.find("input  wire [15:0] x"), std::string::npos);
  EXPECT_NE(verilog.find("output wire [0:0] score0"), std::string::npos);
  EXPECT_EQ(count_occurrences(verilog, "localparam"),
            netlist.netlist.n_luts());
}

TEST(Verilog, TableLiteralMsbFirst) {
  PoetBinNetlist classifier;
  classifier.quant_bits = 1;
  const auto a = classifier.netlist.add_input(0, "a");
  BitVector table(2);
  table.set(0, true);  // inverter: address 0 -> 1, address 1 -> 0
  classifier.netlist.mark_output(classifier.netlist.add_lut({a}, table, "inv"));
  const std::string verilog =
      generate_verilog(classifier, {.module_name = "inv_mod"});
  EXPECT_NE(verilog.find("module inv_mod ("), std::string::npos);
  // MSB first: table bits "01" (bit1=0, bit0=1).
  EXPECT_NE(verilog.find("2'b01"), std::string::npos);
}

TEST(Verilog, ClassifierPorts) {
  const BinaryDataset data = testing::prototype_dataset(150, 20, 3);
  const std::size_t p = 3;
  BitMatrix intermediate(data.size(), data.n_classes * p);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      intermediate.set(i, j, data.labels[i] == static_cast<int>(j / p));
    }
  }
  PoetBinConfig config;
  config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 3};
  config.n_classes = data.n_classes;
  config.output.epochs = 20;
  config.output.quant_bits = 4;
  const PoetBin model =
      PoetBin::train(data.features, intermediate, data.labels, config);
  const PoetBinNetlist netlist = build_poetbin_netlist(model, 20);
  const std::string verilog = generate_verilog(netlist);
  EXPECT_NE(verilog.find("module poetbin_classifier ("), std::string::npos);
  EXPECT_NE(verilog.find("input  wire [19:0] x"), std::string::npos);
  for (int c = 0; c < 10; ++c) {
    EXPECT_NE(verilog.find("output wire [3:0] score" + std::to_string(c)),
              std::string::npos);
  }
  EXPECT_EQ(count_occurrences(verilog, "assign score"), 40u);
}

TEST(Verilog, HandlesConstantNodesFromOptimizer) {
  // A one-class classifier with a one-bit code that is constant 0.
  PoetBinNetlist classifier;
  classifier.quant_bits = 1;
  const auto a = classifier.netlist.add_input(0, "a");
  classifier.netlist.mark_output(
      classifier.netlist.add_lut({a}, BitVector(2), "z"));
  classifier.netlist = optimize_netlist(classifier.netlist);
  const std::string verilog =
      generate_verilog(classifier, {.module_name = "const_mod"});
  EXPECT_NE(verilog.find("module const_mod ("), std::string::npos);
  EXPECT_NE(verilog.find("wire n_const0 = 1'b0;"), std::string::npos);
  EXPECT_NE(verilog.find("assign score0[0] = n_const0;"), std::string::npos);
  EXPECT_EQ(verilog.find("localparam"), std::string::npos);
}

}  // namespace
}  // namespace poetbin
