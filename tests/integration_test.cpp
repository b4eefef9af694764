// End-to-end integration: synthetic images -> teacher -> PoET-BiN ->
// netlist -> VHDL, with bit-exactness checks at every hand-off. This is the
// in-repo equivalent of the paper's FPGA testbench verification loop.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "hw/lut_decompose.h"
#include "hw/netlist_builder.h"
#include "hw/netlist_opt.h"
#include "hw/power_model.h"
#include "hw/vhdl.h"
#include "reference/scalar_reference.h"

namespace poetbin {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static const PipelineResult& result() {
    static const PipelineResult r = [] {
      PipelineConfig config;
      config.data.family = SyntheticFamily::kHouseNumbers;
      config.data.seed = 17;
      config.n_train = 500;
      config.n_test = 200;
      config.net.conv1_channels = 6;
      config.net.conv2_channels = 16;
      config.net.hidden_dim = 64;
      config.net.train.epochs = 3;
      config.train_a2_network = false;
      config.poetbin.rinc = {.lut_inputs = 4, .levels = 2, .total_dts = 8};
      config.poetbin.output.epochs = 100;
      config.seed = 23;
      return run_pipeline(config);
    }();
    return r;
  }
};

TEST_F(EndToEnd, NetlistMatchesModelOnTestSet) {
  const PipelineResult& r = result();
  const PoetBinNetlist netlist =
      build_poetbin_netlist(r.model, r.test_bits.n_features());
  const auto model_predictions =
      reference::predict_dataset(r.model, r.test_bits.features);
  const auto netlist_predictions =
      netlist.predict_dataset(r.test_bits.features);
  EXPECT_EQ(model_predictions, netlist_predictions);
}

TEST_F(EndToEnd, NetlistAccuracyEqualsModelAccuracy) {
  const PipelineResult& r = result();
  const PoetBinNetlist netlist =
      build_poetbin_netlist(r.model, r.test_bits.n_features());
  const auto predictions = netlist.predict_dataset(r.test_bits.features);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == r.test_bits.labels[i]) ++correct;
  }
  const double netlist_accuracy =
      static_cast<double>(correct) / static_cast<double>(predictions.size());
  EXPECT_DOUBLE_EQ(netlist_accuracy, r.a4);
}

TEST_F(EndToEnd, VhdlGeneratesForTrainedModel) {
  const PipelineResult& r = result();
  const PoetBinNetlist netlist =
      build_poetbin_netlist(r.model, r.test_bits.n_features());
  const std::string vhdl = generate_vhdl(netlist);
  EXPECT_GT(vhdl.size(), 10000u);
  EXPECT_NE(vhdl.find("entity poetbin_classifier"), std::string::npos);
  const std::string tb = generate_testbench(netlist, r.test_bits.features);
  EXPECT_NE(tb.find("assert score"), std::string::npos);
}

TEST_F(EndToEnd, LutAccountingConsistent) {
  const PipelineResult& r = result();
  const PoetBinNetlist netlist =
      build_poetbin_netlist(r.model, r.test_bits.n_features());
  EXPECT_EQ(netlist.netlist.n_luts(), r.model.lut_count());
  EXPECT_EQ(six_lut_count(netlist.netlist), r.model.lut_count());  // P = 4
  EXPECT_LE(six_lut_count(optimize_netlist(netlist.netlist)),
            six_lut_count(netlist.netlist));

  // A full-tree bank on the same teacher bits: the built netlist costs what
  // the Table 7 closed form says, and the optimized netlist it ships as
  // still predicts the whole test set exactly like the model.
  PoetBinConfig config;
  config.rinc = {.lut_inputs = 4, .levels = 2, .total_dts = 0};  // 16 DTs
  config.n_classes = r.model.n_classes();
  config.output.epochs = 20;
  const PoetBin full = PoetBin::train(r.train_bits.features,
                                      r.teacher_train_bits,
                                      r.train_bits.labels, config);
  PoetBinHwSpec spec;
  spec.lut_inputs = 4;
  spec.levels = 2;
  spec.n_dts = 16;
  spec.n_modules = full.n_modules();
  spec.n_classes = full.n_classes();
  spec.qbits = full.quant_bits();
  PoetBinNetlist shipped =
      build_poetbin_netlist(full, r.test_bits.n_features());
  EXPECT_EQ(six_lut_count(shipped.netlist), poetbin_total_6luts(spec));
  shipped.netlist = optimize_netlist(shipped.netlist);
  EXPECT_EQ(shipped.predict_dataset(r.test_bits.features),
            reference::predict_dataset(full, r.test_bits.features));
}

TEST_F(EndToEnd, DepthMatchesRincStructure) {
  const PipelineResult& r = result();
  const PoetBinNetlist netlist =
      build_poetbin_netlist(r.model, r.test_bits.n_features());
  // RINC-2 -> 3 LUT levels + 1 output code LUT level.
  EXPECT_EQ(netlist.netlist.depth(), 4u);
}

TEST(HwSpecs, PaperConfigurationsSelfConsistent) {
  // The hardware model's closed forms must agree with the structural
  // formulas used by RincModule for the paper's three configurations.
  EXPECT_EQ(rinc_module_lut_units(hw_spec_svhn()), 43u);
  EXPECT_EQ(full_rinc_lut_count(6, 2), 43u);  // full tree == 36-DT budget here
  EXPECT_EQ(rinc_module_lut_units(hw_spec_mnist()), 37u);
}

}  // namespace
}  // namespace poetbin
