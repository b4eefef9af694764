// Ablation: accuracy vs hardware cost across (P, L, #DTs) — the design
// space behind DESIGN.md's "P balances accuracy and resources" trade-off
// (paper SS2.2.1) and the RINC capacity ladder of SS2.1. Produces an
// accuracy/LUT/energy frontier on a distillation task identical in kind to
// the per-neuron problems PoET-BiN solves, plus a level-capacity ladder
// and a comparison against classic per-node DTs under equal LUT budgets.
// Also writes ablation_sweep.csv next to the binary for plotting.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/rinc.h"
#include "dt/classic_dt.h"
#include "hw/lut_decompose.h"
#include "hw/netlist_builder.h"
#include "hw/netlist_opt.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace poetbin;

// Distillation-style target: a noisy wide-majority function of 24 of the
// 256 binary features — far too wide for one LUT, learnable by boosting.
struct Task {
  BitMatrix train_x, test_x;
  BitVector train_y, test_y;
};

Task make_task(std::size_t n_train, std::size_t n_test, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n_features = 256;
  const std::size_t n = n_train + n_test;
  BitMatrix features(n, n_features);
  BitVector targets(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t votes = 0;
    for (std::size_t f = 0; f < n_features; ++f) {
      const bool bit = rng.next_bool();
      features.set(i, f, bit);
      if (f % 11 == 0 && f < 24 * 11 && bit) ++votes;  // 24 voter features
    }
    bool label = votes >= 12;
    if (rng.next_bool(0.05)) label = !label;
    targets.set(i, label);
  }
  Task task;
  std::vector<std::size_t> train_rows(n_train), test_rows(n_test);
  for (std::size_t i = 0; i < n_train; ++i) train_rows[i] = i;
  for (std::size_t i = 0; i < n_test; ++i) test_rows[i] = n_train + i;
  task.train_x = features.select_rows(train_rows);
  task.test_x = features.select_rows(test_rows);
  for (std::size_t i = 0; i < n_train; ++i) task.train_y.push_back(targets.get(i));
  for (std::size_t i = 0; i < n_test; ++i) {
    task.test_y.push_back(targets.get(n_train + i));
  }
  return task;
}

// 6-LUTs of the module's netlist as built and after optimize_netlist.
struct SixLuts {
  std::size_t raw = 0;
  std::size_t kept = 0;
};

SixLuts six_luts(const RincModule& module, const Task& task) {
  const Netlist built = build_rinc_netlist(module, task.train_x.cols());
  return {six_lut_count(built), six_lut_count(optimize_netlist(built))};
}

double test_accuracy(const RincModule& module, const Task& task) {
  const BitVector predictions = module.eval_dataset_batched(task.test_x);
  return static_cast<double>(predictions.xnor_popcount(task.test_y)) /
         static_cast<double>(task.test_y.size());
}

}  // namespace

int main() {
  using namespace poetbin::bench;
  print_header("Ablation — (P, L, #DT) sweep: accuracy vs LUT cost",
               "PoET-BiN SS2.1 capacity ladder + SS2.2.1 P trade-off");

  const double scale = bench_scale();
  const Task task = make_task(static_cast<std::size_t>(3000 * scale),
                              static_cast<std::size_t>(1000 * scale), 7);

  CsvWriter csv("ablation_sweep.csv",
                {"P", "L", "dts", "test_accuracy", "six_luts", "six_luts_kept",
                 "depth_levels"});

  // --- level ladder at fixed P ---
  std::printf("Capacity ladder (P=6, full trees):\n");
  TablePrinter ladder(
      {"L", "inputs capacity", "6-LUTs", "kept 6-LUTs", "test acc(%)"});
  for (const std::size_t levels : {0u, 1u, 2u}) {
    const RincModule module = RincModule::train(
        task.train_x, task.train_y, {},
        {.lut_inputs = 6, .levels = levels, .total_dts = 0});
    const SixLuts luts = six_luts(module, task);
    std::size_t capacity = 6;
    for (std::size_t l = 0; l < levels; ++l) capacity *= 6;
    ladder.add_row({std::to_string(levels), std::to_string(capacity),
                    std::to_string(luts.raw), std::to_string(luts.kept),
                    pct(test_accuracy(module, task))});
    csv.add_row({"6", std::to_string(levels),
                 std::to_string(module.leaf_dt_count()),
                 TablePrinter::fmt(test_accuracy(module, task), 4),
                 std::to_string(luts.raw), std::to_string(luts.kept),
                 std::to_string(module.depth_in_luts())});
  }
  ladder.print(std::cout);

  // --- P x DTs frontier at L=2 ---
  std::printf("\nFrontier (L=2):\n");
  TablePrinter frontier(
      {"P", "DTs", "6-LUTs", "kept 6-LUTs", "test acc(%)", "acc/LUT"});
  for (const std::size_t p : {4u, 6u, 8u}) {
    for (const std::size_t dts : {8u, 16u, 32u}) {
      if (dts > p * p) continue;
      const RincModule module =
          RincModule::train(task.train_x, task.train_y, {},
                            {.lut_inputs = p, .levels = 2, .total_dts = dts});
      const SixLuts luts = six_luts(module, task);
      const double accuracy = test_accuracy(module, task);
      frontier.add_row(
          {std::to_string(p), std::to_string(dts), std::to_string(luts.raw),
           std::to_string(luts.kept), pct(accuracy),
           TablePrinter::fmt(accuracy / luts.raw, 4)});
      csv.add_row({std::to_string(p), "2", std::to_string(dts),
                   TablePrinter::fmt(accuracy, 4), std::to_string(luts.raw),
                   std::to_string(luts.kept),
                   std::to_string(module.depth_in_luts())});
    }
  }
  frontier.print(std::cout);

  // --- level-wise vs classic DT under equal distinct-feature budgets ---
  std::printf("\nLevel-wise DT (RINC-0) vs classic per-node DT:\n");
  TablePrinter versus({"inputs budget", "RINC-0 acc(%)", "classic acc(%)",
                       "classic distinct features"});
  for (const std::size_t budget : {4u, 6u, 8u}) {
    const LevelDtResult level_fit = train_level_dt(
        task.train_x, task.train_y, {}, {.n_inputs = budget});
    const double level_acc =
        static_cast<double>(RincModule::make_leaf(level_fit.lut)
                                .eval_dataset_batched(task.test_x)
                                .xnor_popcount(task.test_y)) /
        task.test_y.size();
    const ClassicDt classic = ClassicDt::train(task.train_x, task.train_y, {},
                                               {.max_depth = budget});
    const double classic_acc =
        static_cast<double>(classic.eval_dataset(task.test_x)
                                .xnor_popcount(task.test_y)) /
        task.test_y.size();
    versus.add_row({std::to_string(budget), pct(level_acc), pct(classic_acc),
                    std::to_string(classic.distinct_features())});
  }
  versus.print(std::cout);
  std::printf("\n(A classic depth-d tree consults more distinct features than\n"
              "d, so it cannot be packed into one d-input LUT — the paper's\n"
              "core argument for the level-wise variant.)\n"
              "CSV written to ablation_sweep.csv\n");
  return 0;
}
