// Energy explorer: walks the (P, L, #DT, q) design space on a distillation
// task and prints the accuracy / LUT / latency / energy frontier — the tool
// a deployment engineer would use to pick a configuration for a power
// budget, built entirely from the paper's cost models.
//
//   $ ./energy_explorer
#include <cstdio>
#include <iostream>

#include "core/rinc.h"
#include "hw/lut_decompose.h"
#include "hw/netlist_builder.h"
#include "hw/netlist_opt.h"
#include "hw/power_model.h"
#include "util/rng.h"
#include "util/table.h"

using namespace poetbin;

namespace {

struct Task {
  BitMatrix train_x, test_x;
  BitVector train_y, test_y;
};

Task make_task(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n_train = 3000;
  const std::size_t n_test = 1000;
  const std::size_t n_features = 256;
  Task task;
  task.train_x = BitMatrix(n_train, n_features);
  task.test_x = BitMatrix(n_test, n_features);
  task.train_y = BitVector(n_train);
  task.test_y = BitVector(n_test);
  auto fill = [&](BitMatrix& x, BitVector& y) {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      std::size_t votes = 0;
      for (std::size_t f = 0; f < x.cols(); ++f) {
        const bool bit = rng.next_bool();
        x.set(i, f, bit);
        if (f % 13 == 0 && bit) ++votes;  // 20 voter features
      }
      bool label = votes >= 10;
      if (rng.next_bool(0.05)) label = !label;
      y.set(i, label);
    }
  };
  fill(task.train_x, task.train_y);
  fill(task.test_x, task.test_y);
  return task;
}

}  // namespace

int main() {
  std::printf("PoET-BiN energy explorer — accuracy vs hardware cost for one\n"
              "distilled binary neuron (majority-of-20 task, 256 features)\n\n");
  const Task task = make_task(9);

  TablePrinter table({"P", "L", "DTs", "acc(%)", "6-LUTs (optimized)",
                      "latency(ns)", "energy/inf (J)"});
  for (const std::size_t p : {4u, 6u, 8u}) {
    for (const std::size_t levels : {1u, 2u}) {
      for (const std::size_t dts_divisor : {2u, 1u}) {
        std::size_t capacity = 1;
        for (std::size_t l = 0; l < levels; ++l) capacity *= p;
        const std::size_t dts = capacity / dts_divisor;
        if (dts == 0) continue;
        const RincModule module =
            RincModule::train(task.train_x, task.train_y, {},
                              {.lut_inputs = p, .levels = levels,
                               .total_dts = dts});
        const BitVector predictions = module.eval_dataset_batched(task.test_x);
        const double accuracy =
            100.0 *
            static_cast<double>(predictions.xnor_popcount(task.test_y)) /
            static_cast<double>(task.test_y.size());

        const Netlist built = build_rinc_netlist(module, task.train_x.cols());
        const std::size_t raw_6luts = six_lut_count(built);
        const std::size_t kept_6luts = six_lut_count(optimize_netlist(built));
        PoetBinHwSpec spec;
        spec.lut_inputs = p;
        spec.levels = levels;
        spec.n_dts = dts;
        spec.n_modules = 1;
        spec.n_classes = 0;  // single neuron: no output layer
        spec.qbits = 0;
        spec.clock_mhz = p <= 6 ? 100.0 : 62.5;
        spec.prune_fraction = 1.0 - static_cast<double>(kept_6luts) /
                                        static_cast<double>(raw_6luts);

        table.add_row({std::to_string(p), std::to_string(levels),
                       std::to_string(dts), TablePrinter::fmt(accuracy, 2),
                       std::to_string(kept_6luts),
                       TablePrinter::fmt(poetbin_latency_ns(spec), 2),
                       TablePrinter::sci(poetbin_energy_joules(spec), 2)});
      }
    }
  }
  table.print(std::cout);
  std::printf("\nReading the frontier: deeper hierarchies (L=2) buy accuracy\n"
              "with exponentially more LUTs; P=8 halves the clock because an\n"
              "8-input LUT decomposes into two 6-LUT levels (paper SS4.2).\n");
  return 0;
}
