// Scalar vs word-parallel *training*: LevelDT entropy scans, the Adaboost
// error/reweight loops, an end-to-end RINC-2 fit, and the output-layer
// squared-hinge retraining. The scalar side is the LevelDT scalar scan and
// the tests/reference oracles.
//
// The acceptance bars for the training engine, all single-threaded on a
// 10k-example dataset with bit-identical fits/alphas/weights: the bitsliced
// LevelDT candidate scan must be >= 4x the scalar scan at the default P=6
// arity (P=8 gated at >= 3x: its deepest levels are bound by the per-node
// entropy math both paths share), and the word-parallel output-layer
// retrain must be >= 2x the scalar loop at P=6. Gated only at full scale
// (POETBIN_BENCH_SCALE >= 1).
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "boost/adaboost.h"
#include "core/batch_eval.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "dt/level_dt.h"
#include "dt/lut.h"
#include "nn/quantize.h"
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

// Mid-boosting weight profile: log-normal mass, normalised. Uniform weights
// would flatter neither path; this is what LevelDT actually sees from
// Adaboost after a few rounds.
std::vector<double> boosted_weights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  double total = 0.0;
  for (auto& w : weights) {
    w = std::exp(rng.gaussian(0.0, 1.0));
    total += w;
  }
  for (auto& w : weights) w /= total;
  return weights;
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

bool same_fit(const LevelDtResult& a, const LevelDtResult& b) {
  return a.lut == b.lut && a.final_entropy == b.final_entropy &&
         a.weighted_error == b.weighted_error;
}

// Model shell for timing retrain_output_layer in isolation: the RINC bank
// is never touched by the retrain, so trivial leaf modules satisfy
// from_parts and the output layer fits directly on a pre-packed bit bank.
PoetBinConfig output_config(std::size_t n_classes, std::size_t p) {
  PoetBinConfig config;
  config.n_classes = n_classes;
  config.rinc.lut_inputs = p;
  return config;
}

PoetBin output_shell(const PoetBinConfig& config) {
  const std::size_t n_classes = config.n_classes;
  const std::size_t p = config.rinc.lut_inputs;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < n_classes * p; ++m) {
    modules.push_back(RincModule::make_leaf(Lut({0}, BitVector(2))));
  }
  std::vector<SparseOutputNeuron> neurons(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
    neurons[c].input_modules.resize(p);
    for (std::size_t j = 0; j < p; ++j) neurons[c].input_modules[j] = c * p + j;
    neurons[c].weights.assign(p, 0.0f);
    neurons[c].codes.assign(std::size_t{1} << p, 0u);
  }
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             QuantizerParams{});
}

bool same_output_layer(const PoetBin& a, const PoetBin& b) {
  if (a.output_neurons().size() != b.output_neurons().size()) return false;
  for (std::size_t c = 0; c < a.output_neurons().size(); ++c) {
    const SparseOutputNeuron& na = a.output_neurons()[c];
    const SparseOutputNeuron& nb = b.output_neurons()[c];
    if (na.weights != nb.weights || na.bias != nb.bias || na.codes != nb.codes)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header(
      "Training: scalar vs word-parallel LevelDT scans + Adaboost loops",
      "training engine acceptance: bitsliced LevelDT scans, P=6 >= 4x scalar");
  bench::JsonResults json("train_batch");

  const std::size_t n_examples =
      static_cast<std::size_t>(10000 * bench::bench_scale());
  const std::size_t n_features = 512;
  const BitMatrix features = random_bits(n_examples, n_features, 1234);
  const std::vector<double> weights = boosted_weights(n_examples, 77);
  Rng rng(99);
  BitVector targets(n_examples);
  for (std::size_t w = 0; w < targets.word_count(); ++w) {
    targets.words()[w] = rng.next_u64();
  }
  targets.mask_tail_word();

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const WordBackend default_backend = active_word_backend();
  const auto backends = available_word_backends();
  std::printf("dataset: %zu examples x %zu features, %u hardware threads\n",
              n_examples, n_features, static_cast<unsigned>(hw));
  bench::report_word_backends(json);

  bool pass = true;

  // --- LevelDT candidate scans, P=6 (S1 arity) and P=8 (M1/C1) ------------
  for (const std::size_t p : {std::size_t{6}, std::size_t{8}}) {
    const double target = p == 6 ? 4.0 : 3.0;
    std::printf("LevelDT, P=%zu (%zu-level scan over %zu candidates):\n", p, p,
                n_features);
    const LevelDtConfig config{.n_inputs = p};

    LevelDtResult scalar_fit, sliced_fit, threaded_fit;
    const double scalar_s = time_best_of(3, [&] {
      scalar_fit = train_level_dt_scalar(features, targets, weights, config);
    });
    report("scalar scan", scalar_s, n_examples, scalar_s);
    char label[64], key[64];
    double sliced_s = 0.0;
    for (const auto backend : backends) {
      set_word_backend(backend);
      const double backend_s = time_best_of(5, [&] {
        sliced_fit = train_level_dt(features, targets, weights, config);
      });
      if (!same_fit(scalar_fit, sliced_fit)) {
        std::printf("  ERROR: %s fit disagrees with the scalar path\n",
                    word_backend_name(backend));
        return 1;
      }
      if (backend == default_backend) sliced_s = backend_s;
      std::snprintf(label, sizeof label, "bitsliced (1t, %s)",
                    word_backend_name(backend));
      report(label, backend_s, n_examples, scalar_s);
      std::snprintf(key, sizeof key, "leveldt_p%zu_bitsliced_%s_ms", p,
                    word_backend_name(backend));
      json.add(key, 1e3 * backend_s);
    }
    set_word_backend(default_backend);
    const BatchEngine engine(hw);
    const double threaded_s = time_best_of(5, [&] {
      threaded_fit =
          train_level_dt(features, targets, weights, config, &engine);
    });
    if (!same_fit(scalar_fit, threaded_fit)) {
      std::printf("  ERROR: threaded fit disagrees with the scalar path\n");
      return 1;
    }
    std::snprintf(label, sizeof label, "bitsliced (%u threads)",
                  static_cast<unsigned>(hw));
    report(label, threaded_s, n_examples, scalar_s);

    const double speedup = scalar_s / sliced_s;
    std::printf(
        "  -> single-thread bitsliced speedup: %.2fx (target %.0fx)\n\n",
                speedup, target);
    if (speedup < target) pass = false;
    std::snprintf(key, sizeof key, "leveldt_p%zu_scalar_ms", p);
    json.add(key, 1e3 * scalar_s);
    std::snprintf(key, sizeof key, "leveldt_p%zu_bitsliced_ms", p);
    json.add(key, 1e3 * sliced_s);
    std::snprintf(key, sizeof key, "leveldt_p%zu_threaded_ms", p);
    json.add(key, 1e3 * threaded_s);
    std::snprintf(key, sizeof key, "leveldt_p%zu_speedup_1t", p);
    json.add(key, speedup);
  }

  // --- Adaboost error/reweight loops (weak learning held constant) --------
  {
    const std::size_t n_rounds = 16;  // MAT LUT range caps arity at 20
    std::vector<BitVector> round_preds;
    for (std::size_t r = 0; r < n_rounds; ++r) {
      BitVector preds(n_examples);
      for (std::size_t w = 0; w < preds.word_count(); ++w) {
        preds.words()[w] = rng.next_u64();
      }
      preds.mask_tail_word();
      round_preds.push_back(std::move(preds));
    }
    auto canned = [&](std::span<const double>, std::size_t round) {
      return round_preds[round];
    };

    std::printf("Adaboost, %zu rounds (canned weak learner):\n", n_rounds);
    AdaboostResult scalar_boost, word_boost;
    const double scalar_s = time_best_of(3, [&] {
      scalar_boost = reference::run_adaboost_scalar(targets, canned,
                                                    {.n_rounds = n_rounds});
    });
    report("scalar loops", scalar_s, n_examples * n_rounds, scalar_s);
    json.add("adaboost_scalar_ms", 1e3 * scalar_s);
    double word_s = 0.0;
    for (const auto backend : backends) {
      set_word_backend(backend);
      const double backend_s = time_best_of(5, [&] {
        word_boost = run_adaboost(targets, canned, {.n_rounds = n_rounds});
      });
      for (std::size_t r = 0; r < n_rounds; ++r) {
        if (scalar_boost.rounds[r].alpha != word_boost.rounds[r].alpha) {
          std::printf("  ERROR: %s alphas disagree at round %zu\n",
                      word_backend_name(backend), r);
          return 1;
        }
      }
      if (backend == default_backend) word_s = backend_s;
      char label[64], key[64];
      std::snprintf(label, sizeof label, "word-parallel (%s)",
                    word_backend_name(backend));
      report(label, backend_s, n_examples * n_rounds, scalar_s);
      std::snprintf(key, sizeof key, "adaboost_word_%s_ms",
                    word_backend_name(backend));
      json.add(key, 1e3 * backend_s);
    }
    set_word_backend(default_backend);
    std::printf("  -> Adaboost loop speedup: %.2fx\n\n", scalar_s / word_s);
    json.add("adaboost_word_ms", 1e3 * word_s);
    json.add("adaboost_speedup", scalar_s / word_s);
  }

  // --- End-to-end RINC-2 fit ----------------------------------------------
  {
    const RincConfig config{.lut_inputs = 6, .levels = 2, .total_dts = 36};

    std::printf("RINC-2 train (P=6, 36 DTs):\n");
    reference::RincFit scalar_fit;
    RincModule word_module;
    const double scalar_s = time_best_of(1, [&] {
      scalar_fit =
          reference::train_rinc_scalar(features, targets, weights, config);
    });
    const double word_s = time_best_of(2, [&] {
      word_module = RincModule::train(features, targets, weights, config);
    });
    if (!(reference::eval_dataset(scalar_fit.module, features) ==
          reference::eval_dataset(word_module, features)) ||
        scalar_fit.train_error != word_module.train_error()) {
      std::printf("  ERROR: trained modules disagree\n");
      return 1;
    }
    report("scalar train", scalar_s, n_examples, scalar_s);
    report("word-parallel train", word_s, n_examples, scalar_s);
    std::printf("  -> end-to-end training speedup: %.2fx\n\n",
                scalar_s / word_s);
    json.add("rinc2_train_scalar_ms", 1e3 * scalar_s);
    json.add("rinc2_train_word_ms", 1e3 * word_s);
    json.add("rinc2_train_speedup", scalar_s / word_s);
  }

  // --- Output-layer retraining (squared hinge over packed combos) ---------
  {
    const std::size_t n_classes = 10;
    const std::size_t p = 6;
    // Distilled-regime bank: bit (c, j) agrees with "label == c" at ~70%,
    // the fidelity a real RINC bank delivers. Training then actually
    // separates the classes, so the hinge saturates for a growing share of
    // examples — the regime the word path's active-set skipping targets
    // (purely random bits would keep every example active forever).
    Rng orng(555);
    std::vector<int> labels(n_examples);
    for (auto& label : labels) {
      label = static_cast<int>(orng.next_index(n_classes));
    }
    BitMatrix bank(n_examples, n_classes * p);
    for (std::size_t c = 0; c < n_classes; ++c) {
      for (std::size_t j = 0; j < p; ++j) {
        BitVector& column = bank.column(c * p + j);
        for (std::size_t i = 0; i < n_examples; ++i) {
          const bool is_class = labels[i] == static_cast<int>(c);
          column.set(i, is_class != orng.next_bool(0.3));
        }
      }
    }

    std::printf("Output-layer retrain (%zu classes, P=%zu, %zu epochs):\n",
                n_classes, p, OutputLayerConfig{}.epochs);
    const PoetBinConfig config = output_config(n_classes, p);
    const PoetBin shell = output_shell(config);
    PoetBin scalar_model;
    PoetBin word_model = shell;
    const double scalar_s = time_best_of(2, [&] {
      scalar_model =
          reference::retrain_output_layer_scalar(shell, config, bank, labels);
    });
    report("scalar retrain", scalar_s, n_examples, scalar_s);
    json.add("output_retrain_scalar_ms", 1e3 * scalar_s);
    double word_s = 0.0;
    char label[64], key[64];
    for (const auto backend : backends) {
      set_word_backend(backend);
      const double backend_s = time_best_of(
          3, [&] { word_model.retrain_output_layer(bank, labels); });
      if (!same_output_layer(scalar_model, word_model)) {
        std::printf("  ERROR: %s retrained weights disagree with scalar\n",
                    word_backend_name(backend));
        return 1;
      }
      if (backend == default_backend) word_s = backend_s;
      std::snprintf(label, sizeof label, "word-parallel (1t, %s)",
                    word_backend_name(backend));
      report(label, backend_s, n_examples, scalar_s);
      std::snprintf(key, sizeof key, "output_retrain_word_%s_ms",
                    word_backend_name(backend));
      json.add(key, 1e3 * backend_s);
    }
    set_word_backend(default_backend);
    const BatchEngine engine(hw);
    PoetBin threaded_model = shell;
    const double threaded_s = time_best_of(
        3, [&] { threaded_model.retrain_output_layer(bank, labels, &engine); });
    if (!same_output_layer(scalar_model, threaded_model)) {
      std::printf("  ERROR: threaded retrain disagrees with scalar\n");
      return 1;
    }
    std::snprintf(label, sizeof label, "word-parallel (%u threads)",
                  static_cast<unsigned>(hw));
    report(label, threaded_s, n_examples, scalar_s);
    const double speedup = scalar_s / word_s;
    std::printf("  -> single-thread retrain speedup: %.2fx (target 2x)\n\n",
                speedup);
    if (speedup < 2.0) pass = false;
    json.add("output_retrain_word_ms", 1e3 * word_s);
    json.add("output_retrain_threaded_ms", 1e3 * threaded_s);
    json.add("output_retrain_speedup_1t", speedup);
  }

  json.add("acceptance_pass", pass ? 1.0 : 0.0);

  // Only gate at full scale: small runs (CI smoke at 0.25) are too noisy
  // for a hard threshold.
  if (bench::bench_scale() < 1.0) {
    std::printf("acceptance check skipped (scale < 1.0); measured %s target\n",
                pass ? "above" : "below");
    return 0;
  }
  std::printf(
      "acceptance (1-thread: LevelDT P=6 >= 4x, P=8 >= 3x; output-layer "
      "retrain >= 2x): %s\n",
      pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
