// Quickstart: train one RINC-2 module (the paper's tiny binary neuron) on a
// synthetic binary classification task, inspect its structure, and verify
// the generated hardware netlist is bit-exact against the software model.
//
//   $ ./quickstart
//
// Walks through the four core ideas:
//   1. RINC-0: a level-wise decision tree IS a P-input LUT.
//   2. RINC-L: hierarchical Adaboost stacks LUTs to see P^(L+1) inputs.
//   3. Everything that runs in "hardware" is a LUT lookup — the netlist
//      built from the trained module reproduces it exactly.
//   4. Serving: a full classifier lives behind a poetbin::Runtime, and
//      single-example traffic micro-batches into 64-wide word passes.
#include <cstdio>
#include <vector>

#include "core/poetbin.h"
#include "core/rinc.h"
#include "hw/lut_decompose.h"
#include "hw/netlist_builder.h"
#include "hw/netlist_opt.h"
#include "serve/micro_batcher.h"
#include "serve/runtime.h"
#include "util/rng.h"

using namespace poetbin;

int main() {
  // --- a synthetic "wide" binary neuron to emulate ----------------------
  // Target: majority vote over 15 of 128 binary features, with 5% label
  // noise. No single P=6 LUT can represent it; a RINC-2 can.
  const std::size_t n_train = 4000;
  const std::size_t n_test = 1000;
  const std::size_t n_features = 128;
  Rng rng(42);

  BitMatrix features(n_train + n_test, n_features);
  BitVector targets(n_train + n_test);
  for (std::size_t i = 0; i < features.rows(); ++i) {
    std::size_t votes = 0;
    for (std::size_t f = 0; f < n_features; ++f) {
      const bool bit = rng.next_bool();
      features.set(i, f, bit);
      if (f < 15 && bit) ++votes;
    }
    bool label = votes >= 8;
    if (rng.next_bool(0.05)) label = !label;
    targets.set(i, label);
  }
  std::vector<std::size_t> train_rows(n_train);
  std::vector<std::size_t> test_rows(n_test);
  for (std::size_t i = 0; i < n_train; ++i) train_rows[i] = i;
  for (std::size_t i = 0; i < n_test; ++i) test_rows[i] = n_train + i;
  const BitMatrix train_x = features.select_rows(train_rows);
  const BitMatrix test_x = features.select_rows(test_rows);
  BitVector train_y(n_train);
  BitVector test_y(n_test);
  for (std::size_t i = 0; i < n_train; ++i) train_y.set(i, targets.get(i));
  for (std::size_t i = 0; i < n_test; ++i) test_y.set(i, targets.get(n_train + i));

  auto accuracy = [&](const RincModule& module) {
    const BitVector predictions = module.eval_dataset_batched(test_x);
    return 100.0 * static_cast<double>(predictions.xnor_popcount(test_y)) /
           static_cast<double>(n_test);
  };

  // --- the RINC capacity ladder -----------------------------------------
  std::printf("Training RINC modules on a 15-input majority function\n");
  std::printf("(%zu train / %zu test examples, %zu binary features):\n\n",
              n_train, n_test, n_features);
  for (const std::size_t levels : {0u, 1u, 2u}) {
    const RincModule module = RincModule::train(
        train_x, train_y, /*weights=*/{},
        {.lut_inputs = 6, .levels = levels, .total_dts = 0 /*= full tree*/});
    std::printf(
        "  RINC-%zu: %3zu LUTs, depth %zu, sees up to %4zu inputs -> "
        "test accuracy %.2f%%\n",
        levels, module.lut_count(), module.depth_in_luts(),
        module.distinct_features().size(), accuracy(module));
  }

  // --- hardware view ------------------------------------------------------
  const RincModule module = RincModule::train(
      train_x, train_y, {}, {.lut_inputs = 6, .levels = 2, .total_dts = 18});
  std::printf("\nPicked a RINC-2 with 18 DTs (paper-style partial budget):\n");
  std::printf("  LUT count: %zu (closed form for the full tree: %zu)\n",
              module.lut_count(), full_rinc_lut_count(6, 2));
  // The netlist ships optimized: dead MAT fanins and their subtrees go,
  // as the paper observes the synthesizer doing (SS4.3).
  const Netlist built = build_rinc_netlist(module, n_features);
  const Netlist netlist = optimize_netlist(built);
  const std::size_t raw_6luts = six_lut_count(built);
  const std::size_t kept_6luts = six_lut_count(netlist);
  std::printf("  after synthesis-style optimization: %zu of %zu 6-LUTs "
              "(%.1f%% removed)\n",
              kept_6luts, raw_6luts,
              100.0 * (1.0 - static_cast<double>(kept_6luts) /
                                 static_cast<double>(raw_6luts)));

  const BitVector software = module.eval_dataset_batched(test_x);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n_test; ++i) {
    if (netlist.simulate_outputs(test_x.row(i))[0] != software.get(i)) {
      ++mismatches;
    }
  }
  std::printf("  optimized netlist vs software model on %zu test vectors: "
              "%zu mismatches %s\n",
              n_test, mismatches, mismatches == 0 ? "(bit-exact)" : "(BUG!)");

  // --- serving view --------------------------------------------------------
  // A deployable classifier is a *bank* of RINC modules plus a sparse
  // quantized output layer. Build a tiny 2-class PoET-BiN on the same task
  // (class 1 = majority reached): each class's P intermediate targets are
  // noisy copies of the label / its complement, standing in for a teacher's
  // intermediate bits. Then serve it through the runtime layer.
  std::printf("\nServing: 2-class PoET-BiN behind poetbin::Runtime\n");
  const std::size_t p = 6;
  const std::size_t n_classes = 2;
  BitMatrix intermediate(n_train, n_classes * p);
  std::vector<int> labels(n_train);
  Rng teacher_rng(7);
  for (std::size_t i = 0; i < n_train; ++i) {
    labels[i] = train_y.get(i) ? 1 : 0;
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      const bool target_bit = (labels[i] == static_cast<int>(j / p));
      intermediate.set(i, j, target_bit != teacher_rng.next_bool(0.05));
    }
  }
  PoetBinConfig pb_config;
  pb_config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 6};
  pb_config.n_classes = n_classes;
  pb_config.output.epochs = 60;
  pb_config.threads = 1;
  const Runtime runtime = Runtime::train(train_x, intermediate, labels,
                                         pb_config, {.threads = 1});

  // Single-example requests micro-batch into 64-wide bitsliced passes and
  // must agree bit for bit with the scalar per-example path.
  MicroBatcher batcher(runtime, {.max_batch = 64});
  std::vector<BitVector> request_rows;
  std::vector<MicroBatcher::Ticket> tickets;
  request_rows.reserve(n_test);
  tickets.reserve(n_test);
  for (std::size_t i = 0; i < n_test; ++i) {
    request_rows.push_back(test_x.row(i));
    tickets.push_back(batcher.submit(request_rows.back()));
  }
  batcher.flush();
  std::size_t serve_mismatches = 0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n_test; ++i) {
    const int served = tickets[i].get();
    if (served != runtime.predict_one(request_rows[i])) ++serve_mismatches;
    if (served == (test_y.get(i) ? 1 : 0)) ++correct;
  }
  const ServeStats serve_stats = batcher.stats();
  std::printf("  %llu requests served in %llu micro-batches: accuracy %.2f%%, "
              "%zu mismatches vs scalar predict %s\n",
              static_cast<unsigned long long>(serve_stats.requests),
              static_cast<unsigned long long>(serve_stats.batches),
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(n_test),
              serve_mismatches,
              serve_mismatches == 0 ? "(bit-exact)" : "(BUG!)");

  std::printf("\nDone. Next: examples/full_pipeline for the image-to-LUT "
              "workflow.\n");
  return mismatches == 0 && serve_mismatches == 0 ? 0 : 1;
}
