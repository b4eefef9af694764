// Ablation (SS3): output-layer quantization width q in {4, 8, 16}.
// The paper: q=4 loses significant accuracy, q=8 is near-lossless, q=16
// matches q=8 while doubling the output-layer LUT cost — hence q=8.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/batch_eval.h"
#include "core/poetbin.h"
#include "util/table.h"

int main() {
  using namespace poetbin;
  using namespace poetbin::bench;

  print_header("Ablation — output layer quantization (q = 1/2/4/8/16 bits)",
               "PoET-BiN SS3 (choice of q = 8)");

  // One digits pipeline; then retrain only the PoET-BiN stage per q.
  PipelineConfig config = config_mnist();
  config.train_a2_network = false;
  const PipelineResult base = run_pipeline(config);
  std::printf("teacher accuracy A3 = %s%%\n\n", pct(base.a3).c_str());

  TablePrinter table(
      {"q (bits)", "accuracy(%)", "output LUTs", "total LUTs", "note"});
  const BatchEngine engine;
  for (const int qbits : {1, 2, 4, 8, 16}) {
    PoetBinConfig poet_config = config.poetbin;
    poet_config.output.quant_bits = qbits;
    const PoetBin model =
        PoetBin::train(base.train_bits.features, base.teacher_train_bits,
                       base.train_bits.labels, poet_config);
    const double accuracy = prediction_accuracy(
        model.predict_dataset_batched(base.test_bits.features, engine),
        base.test_bits.labels);
    const std::size_t output_luts = model.n_classes() * qbits;
    std::string note;
    if (qbits == 8) note = "paper's choice";
    if (qbits == 16) note = "2x output LUTs, no gain expected";
    if (qbits <= 4) note = "paper: significant loss";
    table.add_row({std::to_string(qbits), pct(accuracy),
                   std::to_string(output_luts),
                   std::to_string(model.lut_count()), note});
  }
  table.print(std::cout);
  return 0;
}
