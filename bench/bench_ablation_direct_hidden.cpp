// Ablation (SS4.1): instead of distilling the nc x P intermediate-layer
// neurons, train one RINC module per *hidden-layer* neuron and retrain a
// fully connected output layer on all of them. The paper reports 98.62%
// (vs 98.15% for the intermediate-layer route) on MNIST at the cost of 512
// RINC modules instead of 80. We reproduce the shape: higher (or equal)
// accuracy, several times the LUT budget.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/rinc.h"
#include "nn/sequential.h"
#include "util/table.h"

int main() {
  using namespace poetbin;
  using namespace poetbin::bench;

  print_header("Ablation — RINC per hidden neuron vs per intermediate neuron",
               "PoET-BiN SS4.1 (512-module MNIST variant, 98.62% vs 98.15%)");

  PipelineConfig config = config_mnist();
  config.train_a2_network = false;
  config.binary_hidden = true;
  // Keep the hidden layer small enough that one-RINC-per-neuron is tractable
  // at bench scale (the paper's point is the trade-off, not the constant).
  config.net.hidden_dim = 128;
  const PipelineResult result = run_pipeline(config);
  std::printf("teacher A3 = %s%%, intermediate-route A4 = %s%%\n\n",
              pct(result.a3).c_str(), pct(result.a4).c_str());

  // Train one RINC module per hidden neuron on the binary hidden bits.
  const std::size_t n_hidden = result.hidden_train_bits.cols();
  RincConfig rinc_config = config.poetbin.rinc;
  rinc_config.total_dts = 16;  // smaller per-module budget: many more modules
  rinc_config.lut_inputs = 6;
  std::printf("[bench] distilling %zu hidden neurons (RINC-2, 16 DTs each)\n",
              n_hidden);
  std::fflush(stdout);

  std::vector<RincModule> modules;
  modules.reserve(n_hidden);
  Matrix train_inputs(result.train_bits.size(), n_hidden);
  Matrix test_inputs(result.test_bits.size(), n_hidden);
  std::size_t total_luts = 0;
  for (std::size_t j = 0; j < n_hidden; ++j) {
    modules.push_back(RincModule::train(result.train_bits.features,
                                        result.hidden_train_bits.column(j), {},
                                        rinc_config));
    const RincModule& module = modules.back();
    total_luts += module.lut_count();
    const BitVector train_bits =
        module.eval_dataset_batched(result.train_bits.features);
    const BitVector test_bits =
        module.eval_dataset_batched(result.test_bits.features);
    for (std::size_t i = 0; i < train_inputs.rows(); ++i) {
      train_inputs(i, j) = train_bits.get(i) ? 1.0f : 0.0f;
    }
    for (std::size_t i = 0; i < test_inputs.rows(); ++i) {
      test_inputs(i, j) = test_bits.get(i) ? 1.0f : 0.0f;
    }
  }

  // Retrain a fully connected output layer on the RINC outputs.
  Rng rng(3);
  Sequential output_net;
  output_net.add<Dense>(n_hidden, 10, rng);
  Adam adam(0.01);
  TrainConfig train_config;
  train_config.epochs = 40;
  output_net.fit(train_inputs, result.train_bits.labels, adam, train_config);
  const double direct_accuracy =
      output_net.evaluate_accuracy(test_inputs, result.test_bits.labels);

  TablePrinter table({"variant", "modules", "total RINC LUTs", "accuracy(%)"});
  std::size_t intermediate_luts = 0;
  for (const auto& module : result.model.modules()) {
    intermediate_luts += module.lut_count();
  }
  table.add_row({"intermediate layer (paper default)",
                 std::to_string(result.model.n_modules()),
                 std::to_string(intermediate_luts), pct(result.a4)});
  table.add_row({"direct hidden layer (SS4.1 ablation)",
                 std::to_string(n_hidden), std::to_string(total_luts),
                 pct(direct_accuracy)});
  table.print(std::cout);

  std::printf("\nShape check: the hidden-layer route should be at least as\n"
              "accurate while consuming several times the LUTs — the reason\n"
              "the paper keeps the intermediate-layer design.\n");
  return 0;
}
