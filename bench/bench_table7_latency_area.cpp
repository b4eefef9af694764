// Table 7: latency and LUT counts of the PoET-BiN implementations, from the
// exact structural model (decomposition + pruning) and the calibrated
// latency fit. Includes the paper's SS4.3 hand-verification of the SVHN
// count (43 x 60 + 80 = 2660) and, at the end, the LUT accounting measured
// on OUR trained models so structure and model agree.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "hw/lut_decompose.h"
#include "hw/netlist_builder.h"
#include "hw/netlist_opt.h"
#include "hw/power_model.h"
#include "util/table.h"

int main() {
  using namespace poetbin;
  using namespace poetbin::bench;

  print_header("Table 7 — implementation results (latency, LUTs)",
               "PoET-BiN Table 7 + SS4.3 LUT accounting");

  struct Row {
    PoetBinHwSpec spec;
    double paper_latency_ns;
    std::size_t paper_luts;
  };
  const Row rows[] = {
      {hw_spec_mnist(), 9.11, 11899},
      {hw_spec_cifar10(), 9.48, 9650},
      {hw_spec_svhn(), 5.85, 2660},
  };

  TablePrinter table({"dataset", "P", "DTs", "levels", "paper ns", "model ns",
                      "paper LUTs", "model LUTs"});
  for (const auto& row : rows) {
    table.add_row({row.spec.name, std::to_string(row.spec.lut_inputs),
                   std::to_string(row.spec.n_dts),
                   std::to_string(poetbin_critical_path_levels(row.spec)),
                   TablePrinter::fmt(row.paper_latency_ns, 2),
                   TablePrinter::fmt(poetbin_latency_ns(row.spec), 2),
                   std::to_string(row.paper_luts),
                   std::to_string(poetbin_total_6luts(row.spec))});
  }
  table.print(std::cout);

  // SS4.3 hand count for SVHN.
  const PoetBinHwSpec svhn = hw_spec_svhn();
  std::printf("\nSS4.3 hand verification (SVHN): 36+6+1 = %zu LUTs/module; "
              "x60 modules + 10x8 output LUTs = %zu (paper: 2660)\n",
              rinc_module_lut_units(svhn), poetbin_total_6luts(svhn));

  std::printf("\nThroughput implied by single-cycle inference:\n");
  TablePrinter throughput({"dataset", "clock (MHz)", "images/s"});
  for (const auto& row : rows) {
    throughput.add_row({row.spec.name, TablePrinter::fmt(row.spec.clock_mhz, 1),
                        TablePrinter::sci(row.spec.clock_mhz * 1e6, 2)});
  }
  throughput.print(std::cout);

  // Measured accounting on a trained model (small scale so this bench stays
  // fast): netlist LUTs == model LUTs, and the fraction optimize_netlist
  // removes (the paper's 36% CIFAR-10 observation).
  std::printf("\nMeasured on a trained model (scaled-down digits config):\n");
  PipelineConfig config = config_mnist();
  config.n_train = std::max<std::size_t>(400, config.n_train / 4);
  config.n_test = std::max<std::size_t>(150, config.n_test / 4);
  config.net.train.epochs = 4;
  config.train_a2_network = false;
  config.poetbin.rinc =
      {.lut_inputs = 6, .levels = 2, .total_dts = 18, .adaboost = {}};
  const PipelineResult result = run_pipeline(config);

  const Netlist built =
      build_poetbin_netlist(result.model, result.train_bits.n_features())
          .netlist;
  NetlistOptStats opt;
  const Netlist optimized = optimize_netlist(built, &opt);
  const std::size_t raw_6luts = six_lut_count(built);
  const std::size_t kept_6luts = six_lut_count(optimized);
  TablePrinter measured({"quantity", "value"});
  measured.add_row({"model lut_count()", std::to_string(result.model.lut_count())});
  measured.add_row({"netlist LUTs", std::to_string(built.n_luts())});
  measured.add_row({"netlist depth", std::to_string(built.depth())});
  measured.add_row({"optimized LUTs", std::to_string(optimized.n_luts())});
  measured.add_row(
      {"inputs disconnected", std::to_string(opt.inputs_disconnected)});
  measured.add_row({"constants folded", std::to_string(opt.constants_folded)});
  measured.add_row({"raw 6-LUTs", std::to_string(raw_6luts)});
  measured.add_row({"optimized 6-LUTs", std::to_string(kept_6luts)});
  measured.add_row(
      {"removed fraction (6-LUTs)",
       TablePrinter::fmt(100.0 * (1.0 - static_cast<double>(kept_6luts) /
                                            static_cast<double>(raw_6luts)),
                         1) +
           "%"});
  measured.print(std::cout);
  std::printf("(paper reports ~36%% of CIFAR-10 LUTs removed by synthesis — "
              "mostly low-weight MAT fanins, the same mechanism measured "
              "here)\n");
  return 0;
}
