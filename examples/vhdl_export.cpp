// Automatic VHDL generation (the paper's SS4.2 Python-script contribution,
// here in C++): trains a small PoET-BiN classifier, optimizes its netlist
// the way synthesis would, writes the synthesizable entity and a
// self-checking testbench to ./vhdl_out/, and proves the optimized netlist
// the VHDL encodes is bit-exact against the C++ model on the full test set
// — the same verification loop the paper runs between its FPGA and
// PyTorch. Exits non-zero on any mismatch.
//
//   $ ./vhdl_export
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/batch_eval.h"
#include "core/pipeline.h"
#include "hw/netlist_builder.h"
#include "hw/netlist_opt.h"
#include "hw/vhdl.h"

using namespace poetbin;

int main() {
  // Small digits pipeline so the example runs in seconds.
  PipelineConfig config = preset_m1(0.4);
  config.train_a2_network = false;
  config.poetbin.rinc = {.lut_inputs = 6, .levels = 2, .total_dts = 12};
  std::printf("training a small PoET-BiN classifier (digits, P=6, 12 DTs)\n");
  const PipelineResult result = run_pipeline(config);
  std::printf("teacher %.2f%%, PoET-BiN %.2f%%\n", 100 * result.a3,
              100 * result.a4);

  const std::size_t n_features = result.train_bits.n_features();
  PoetBinNetlist netlist = build_poetbin_netlist(result.model, n_features);
  NetlistOptStats opt;
  netlist.netlist = optimize_netlist(netlist.netlist, &opt);
  std::printf("netlist: %zu LUTs, optimized to %zu (%.1f%% removed), depth "
              "%zu, %zu inputs\n",
              opt.luts_before, opt.luts_after, 100.0 * opt.removed_fraction(),
              netlist.netlist.depth(), n_features);

  // --- verification: netlist vs model on every test vector ---------------
  const BatchEngine engine;
  const auto model_pred =
      result.model.predict_dataset_batched(result.test_bits.features, engine);
  const auto netlist_pred = netlist.predict_dataset(result.test_bits.features);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < model_pred.size(); ++i) {
    if (model_pred[i] != netlist_pred[i]) ++mismatches;
  }
  std::printf("optimized netlist vs model on %zu test vectors: %zu "
              "mismatches %s\n",
              model_pred.size(), mismatches,
              mismatches == 0 ? "(bit-exact)" : "(BUG!)");

  // --- emit VHDL ----------------------------------------------------------
  std::filesystem::create_directories("vhdl_out");
  VhdlOptions options;
  options.testbench_vectors = 32;

  const std::string rtl = generate_vhdl(netlist, options);
  std::ofstream("vhdl_out/poetbin_classifier.vhd") << rtl;
  const std::string tb = generate_testbench(netlist, result.test_bits.features,
                                            options);
  std::ofstream("vhdl_out/poetbin_classifier_tb.vhd") << tb;

  std::printf("wrote vhdl_out/poetbin_classifier.vhd     (%zu bytes)\n",
              rtl.size());
  std::printf("wrote vhdl_out/poetbin_classifier_tb.vhd  (%zu bytes, %zu "
              "check vectors)\n",
              tb.size(), options.testbench_vectors);
  std::printf("\nSimulate with e.g.:\n"
              "  ghdl -a vhdl_out/poetbin_classifier.vhd "
              "vhdl_out/poetbin_classifier_tb.vhd\n"
              "  ghdl -r poetbin_classifier_tb\n");
  return mismatches == 0 ? 0 : 1;
}
