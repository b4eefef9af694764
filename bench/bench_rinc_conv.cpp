// RINC conv layer: scalar patch oracle vs bitsliced word-parallel eval.
//
// The bitsliced conv pass (core/batch_eval.cpp) never materializes patches:
// each word chunk of frames is copied once into a zero-padded frame whose
// rows are grouped by stride phase, so a patch bit of one output row is a
// contiguous run across every output column, and each channel module's
// LUTs Shannon-reduce a whole row per kernel call, 64 examples per word
// op. This bench times that against the scalar patch oracle
// (reference::conv_eval_dataset, tests/reference) on a
// CIFAR-sized binary feature map, one row per available SIMD word backend
// plus a threaded row, every row verified bit-identical.
//
// Acceptance bar (gated only at POETBIN_BENCH_SCALE >= 1): the
// single-threaded bitsliced conv on the default backend must be >= 10x the
// scalar path. The fused ConvModel predict (conv pass + classifier argmax
// per chunk on one engine) is timed against the scalar
// reference::predict_dataset as well, and so is its per-call fixed cost:
// one-thread calls of 256 and 1024 frames, whose latency ratio is 0.25 when
// a call costs only its frames (conv_predict_call_ratio, informational).
// The single-frame path, ConvModel::predict (the same fused pass on a
// one-row matrix, inline), is timed one call at a time over 1024 frames
// (conv_predict_one_us, the median, informational).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/batch_eval.h"
#include "core/poetbin.h"
#include "core/rinc_conv.h"
#include "reference/scalar_reference.h"
#include "util/bit_matrix.h"
#include "util/rng.h"
#include "util/word_backend.h"

namespace {

using namespace poetbin;
using Clock = std::chrono::steady_clock;

BitMatrix random_bits(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix bits(rows, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    BitVector& column = bits.column(c);
    for (std::size_t w = 0; w < column.word_count(); ++w) {
      column.words()[w] = rng.next_u64();
    }
    column.mask_tail_word();
  }
  return bits;
}

template <typename Fn>
double time_best_of(std::size_t reps, const Fn& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

void report(const char* label, double seconds, std::size_t n_examples,
            double baseline_seconds) {
  std::printf("  %-28s %10.3f ms  %12.0f ex/s  %6.2fx\n", label,
              1e3 * seconds, n_examples / seconds, baseline_seconds / seconds);
}

}  // namespace

int main() {
  bench::print_header(
      "RINC conv: scalar patch oracle vs bitsliced word-parallel eval",
      "acceptance: default backend 1-thread conv >= 10x scalar");
  bench::JsonResults json("rinc_conv");

  // A CIFAR-shaped binary front end: 3x16x16 frames into 8 output channels.
  const BinShape3 in_shape{3, 16, 16};
  RincConvConfig config;
  config.out_channels = 8;
  config.kernel = 3;
  config.stride = 1;
  config.padding = 1;
  config.rinc = {.lut_inputs = 5, .levels = 1, .total_dts = 5};

  const std::size_t n_examples =
      static_cast<std::size_t>(4000 * bench::bench_scale());
  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("dataset: %zu frames of %zux%zux%zu bits, %u hardware threads\n",
              n_examples, in_shape.channels, in_shape.height, in_shape.width,
              static_cast<unsigned>(hw));
  bench::report_word_backends(json);

  // Train on a small pool (fidelity is not the point here), eval at scale.
  const BitMatrix train_inputs = random_bits(48, in_shape.flat(), 11);
  const BitMatrix train_targets =
      random_bits(48, config.out_channels * in_shape.height * in_shape.width,
                  12);
  const RincConvLayer layer =
      RincConvLayer::train(train_inputs, in_shape, train_targets, config);
  std::printf("conv layer: %zu channels, %zu-bit patches, %zu LUTs/position\n",
              config.out_channels, layer.patch_bits(),
              layer.lut_count_per_position());

  const BitMatrix frames = random_bits(n_examples, in_shape.flat(), 13);
  const WordBackend default_backend = active_word_backend();

  BitMatrix scalar_out, sliced_out;
  const double scalar_s =
      time_best_of(3, [&] {
        scalar_out = reference::conv_eval_dataset(layer, frames);
      });
  report("scalar eval_dataset", scalar_s, n_examples, scalar_s);
  json.add("conv_eval_scalar_ms", 1e3 * scalar_s);

  char key[64], label[64];
  double default_s = 0.0;
  for (const WordBackend backend : available_word_backends()) {
    set_word_backend(backend);
    const BatchEngine engine(1);
    const double sliced_s = time_best_of(
        5, [&] { sliced_out = layer.eval_dataset_batched(frames, engine); });
    if (!(sliced_out == scalar_out)) {
      std::printf("  ERROR: %s conv output disagrees with scalar path\n",
                  word_backend_name(backend));
      return 1;
    }
    if (backend == default_backend) default_s = sliced_s;
    std::snprintf(label, sizeof label, "bitsliced (1t, %s)",
                  word_backend_name(backend));
    report(label, sliced_s, n_examples, scalar_s);
    std::snprintf(key, sizeof key, "conv_eval_%s_ms",
                  word_backend_name(backend));
    json.add(key, 1e3 * sliced_s);
  }
  set_word_backend(default_backend);

  const BatchEngine pool(hw);
  const double threaded_s = time_best_of(
      5, [&] { sliced_out = layer.eval_dataset_batched(frames, pool); });
  if (!(sliced_out == scalar_out)) {
    std::printf("  ERROR: threaded conv output disagrees with scalar path\n");
    return 1;
  }
  std::snprintf(label, sizeof label, "bitsliced (%u threads)",
                static_cast<unsigned>(hw));
  report(label, threaded_s, n_examples, scalar_s);
  json.add("conv_eval_threaded_ms", 1e3 * threaded_s);

  const double speedup = scalar_s / default_s;
  json.add("conv_eval_speedup_1t", speedup);
  std::printf("  -> default backend 1-thread speedup: %.2fx (target 10x)\n\n",
              speedup);
  bool pass = speedup >= 10.0;

  // Fused end-to-end ConvModel predict: bitsliced conv + fused classifier
  // argmax on one engine, against the all-scalar oracle.
  {
    ConvModel model;
    model.conv = layer;
    const BitMatrix conv_out =
        model.conv.eval_dataset_batched(train_inputs, BatchEngine(1));
    std::vector<int> labels(train_inputs.rows());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<int>(i % 10);
    }
    const std::size_t p = 4;
    BitMatrix intermediate(conv_out.rows(), 10 * p);
    for (std::size_t i = 0; i < intermediate.rows(); ++i) {
      for (std::size_t j = 0; j < intermediate.cols(); ++j) {
        intermediate.set(i, j, labels[i] == static_cast<int>(j / p));
      }
    }
    PoetBinConfig classifier_config;
    classifier_config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 4};
    classifier_config.n_classes = 10;
    classifier_config.output.epochs = 5;
    model.classifier =
        PoetBin::train(conv_out, intermediate, labels, classifier_config);

    std::printf("ConvModel predict, 10 classes:\n");
    std::vector<int> scalar_pred, fused_pred;
    const double predict_scalar_s = time_best_of(
        3, [&] { scalar_pred = reference::predict_dataset(model, frames); });
    report("scalar predict_dataset", predict_scalar_s, n_examples,
           predict_scalar_s);
    json.add("conv_predict_scalar_ms", 1e3 * predict_scalar_s);

    const BatchEngine engine(1);
    const double fused_s = time_best_of(5, [&] {
      fused_pred = model.predict_dataset_batched(frames, engine);
    });
    if (fused_pred != scalar_pred) {
      std::printf("  ERROR: fused conv predict disagrees with scalar\n");
      return 1;
    }
    report("fused conv+argmax (1t)", fused_s, n_examples, predict_scalar_s);
    json.add("conv_predict_fused_ms", 1e3 * fused_s);
    json.add("conv_predict_speedup_1t", predict_scalar_s / fused_s);

    // Call size: the median latency of 256- and 1024-frame calls on one
    // thread. A call that costs only its frames makes the ratio 0.25; fixed
    // per-call work pushes it towards 1.
    double call_ms[2] = {0.0, 0.0};
    const std::size_t call_rows[2] = {256, 1024};
    for (std::size_t k = 0; k < 2; ++k) {
      std::vector<std::size_t> rows(call_rows[k]);
      for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i % n_examples;
      const BitMatrix call = frames.select_rows(rows);
      std::vector<double> samples;
      for (std::size_t r = 0; r < 41; ++r) {
        samples.push_back(time_best_of(1, [&] {
          fused_pred = model.predict_dataset_batched(call, engine);
        }));
      }
      std::nth_element(samples.begin(), samples.begin() + 20, samples.end());
      call_ms[k] = 1e3 * samples[20];
      std::printf("  %4zu-frame call (1t)          %10.3f ms  %9.1f ns/frame\n",
                  call_rows[k], call_ms[k],
                  1e6 * call_ms[k] / static_cast<double>(call_rows[k]));
    }
    json.add("conv_predict_call256_ms", call_ms[0]);
    json.add("conv_predict_call1024_ms", call_ms[1]);
    json.add("conv_predict_call_ratio", call_ms[0] / call_ms[1]);
    std::printf("  -> 256/1024-frame latency ratio: %.2f (0.25 = no fixed "
                "cost)\n",
                call_ms[0] / call_ms[1]);

    // Single-frame predict: each of 1024 frames timed on its own, every
    // answer checked against the oracle.
    constexpr std::size_t kSingleFrames = 1024;
    std::vector<BitVector> single_rows;
    for (std::size_t i = 0; i < kSingleFrames; ++i) {
      single_rows.push_back(frames.row(i % n_examples));
    }
    std::vector<double> single_us(kSingleFrames);
    for (std::size_t i = 0; i < kSingleFrames; ++i) {
      int predicted = 0;
      single_us[i] = 1e6 * time_best_of(1, [&] {
        predicted = model.predict(single_rows[i]);
      });
      if (predicted != scalar_pred[i % n_examples]) {
        std::printf("  ERROR: single-frame predict disagrees with scalar\n");
        return 1;
      }
    }
    std::nth_element(single_us.begin(), single_us.begin() + kSingleFrames / 2,
                     single_us.end());
    const double predict_one_us = single_us[kSingleFrames / 2];
    json.add("conv_predict_one_us", predict_one_us);
    std::printf("  single-frame predict (1t)    %10.3f us/frame (median of "
                "%zu)\n\n",
                predict_one_us, kSingleFrames);
  }

  json.add("acceptance_pass", pass ? 1.0 : 0.0);

  // Only gate at full scale: small runs (CI smoke at 0.25) are too noisy
  // for a hard threshold.
  if (bench::bench_scale() < 1.0) {
    std::printf("acceptance check skipped (scale < 1.0); measured %s target\n",
                pass ? "above" : "below");
    return 0;
  }
  std::printf("acceptance (default conv >= 10x scalar): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
