// Word-parallel output-layer retraining vs the scalar oracle
// (tests/reference): bit-identical
// trained neurons (weights, biases, quantized codes) on ragged dataset
// sizes, degenerate configs (zero epochs, one class), every available SIMD
// backend and any thread count — plus the input-validation regressions
// (label range, RINC bank width).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/batch_eval.h"
#include "core/poetbin.h"
#include "dt/lut.h"
#include "reference/scalar_reference.h"
#include "test_util.h"
#include "util/word_backend.h"

namespace poetbin {
namespace {

using testing::BackendGuard;
using testing::random_bits;

// A model shell whose RINC bank is irrelevant: retrain_output_layer never
// touches the modules, so trivial 1-input leaf LUTs satisfy from_parts and
// the output layer can be fitted directly on arbitrary packed bits. This
// keeps the ragged sweep fast (no distillation).
PoetBinConfig shell_config(std::size_t n_classes, std::size_t p,
                           const OutputLayerConfig& ocfg) {
  PoetBinConfig config;
  config.n_classes = n_classes;
  config.rinc.lut_inputs = p;
  config.output = ocfg;
  return config;
}

PoetBin make_shell(std::size_t n_classes, std::size_t p,
                   const OutputLayerConfig& ocfg) {
  const PoetBinConfig config = shell_config(n_classes, p, ocfg);
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

// The scalar oracle's retrain of a fresh shell.
PoetBin scalar_retrain(std::size_t n_classes, std::size_t p,
                       const OutputLayerConfig& ocfg, const BitMatrix& bank,
                       const std::vector<int>& labels) {
  return reference::retrain_output_layer_scalar(
      make_shell(n_classes, p, ocfg), shell_config(n_classes, p, ocfg), bank,
      labels);
}

std::vector<int> random_labels(std::size_t n, std::size_t n_classes,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> labels(n);
  for (auto& label : labels) {
    label = static_cast<int>(rng.next_index(n_classes));
  }
  return labels;
}

void expect_same_output_layer(const PoetBin& a, const PoetBin& b,
                              std::size_t n) {
  ASSERT_EQ(a.output_neurons().size(), b.output_neurons().size()) << "n=" << n;
  for (std::size_t c = 0; c < a.output_neurons().size(); ++c) {
    const SparseOutputNeuron& na = a.output_neurons()[c];
    const SparseOutputNeuron& nb = b.output_neurons()[c];
    EXPECT_EQ(na.input_modules, nb.input_modules) << "n=" << n << " c=" << c;
    EXPECT_EQ(na.weights, nb.weights) << "n=" << n << " c=" << c;
    EXPECT_EQ(na.bias, nb.bias) << "n=" << n << " c=" << c;
    EXPECT_EQ(na.codes, nb.codes) << "n=" << n << " c=" << c;
  }
  EXPECT_EQ(a.quantizer().bits, b.quantizer().bits) << "n=" << n;
  EXPECT_EQ(a.quantizer().min_value, b.quantizer().min_value) << "n=" << n;
  EXPECT_EQ(a.quantizer().max_value, b.quantizer().max_value) << "n=" << n;
}

// Retrains two identical shells, scalar vs word-parallel, on the same bank.
void run_compare(std::size_t n, std::size_t n_classes, std::size_t p,
                 std::size_t epochs, const BatchEngine* engine = nullptr) {
  const BitMatrix bank = random_bits(n, n_classes * p, 1000 + n);
  const std::vector<int> labels = random_labels(n, n_classes, 2000 + n);
  OutputLayerConfig cfg;
  cfg.epochs = epochs;

  const PoetBin scalar = scalar_retrain(n_classes, p, cfg, bank, labels);
  PoetBin word = make_shell(n_classes, p, cfg);
  word.retrain_output_layer(bank, labels, engine);
  expect_same_output_layer(scalar, word, n);
}

class OutputLayerRaggedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OutputLayerRaggedTest, WordParallelRetrainBitIdentical) {
  run_compare(GetParam(), 5, 4, 60);
}

TEST_P(OutputLayerRaggedTest, ThreadedRetrainBitIdentical) {
  const BatchEngine engine(4);
  run_compare(GetParam(), 5, 4, 40, &engine);
}

INSTANTIATE_TEST_SUITE_P(RaggedSizes, OutputLayerRaggedTest,
                         ::testing::Values(1, 63, 64, 65, 1000));

TEST(OutputLayerRetrain, ZeroEpochsLeavesSeededInitIdentical) {
  run_compare(130, 4, 3, 0);
}

TEST(OutputLayerRetrain, SingleClassModel) { run_compare(200, 1, 3, 50); }

TEST(OutputLayerRetrain, SingleExample) { run_compare(1, 3, 2, 30); }

TEST(OutputLayerRetrain, BitIdenticalOnEveryBackend) {
  const std::size_t n = 500;
  const BitMatrix bank = random_bits(n, 5 * 4, 77);
  const std::vector<int> labels = random_labels(n, 5, 78);
  OutputLayerConfig cfg;
  cfg.epochs = 50;
  const PoetBin scalar = scalar_retrain(5, 4, cfg, bank, labels);

  BackendGuard guard;
  for (const auto backend : available_word_backends()) {
    set_word_backend(backend);
    PoetBin word = make_shell(5, 4, cfg);
    word.retrain_output_layer(bank, labels);
    SCOPED_TRACE(word_backend_name(backend));
    expect_same_output_layer(scalar, word, n);
  }
}

TEST(OutputLayerRetrain, ThreadCountDoesNotChangeWeights) {
  const std::size_t n = 700;
  const BitMatrix bank = random_bits(n, 6 * 4, 91);
  const std::vector<int> labels = random_labels(n, 6, 92);
  OutputLayerConfig cfg;
  cfg.epochs = 40;

  PoetBin serial = make_shell(6, 4, cfg);
  serial.retrain_output_layer(bank, labels);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const BatchEngine engine(threads);
    PoetBin threaded = make_shell(6, 4, cfg);
    threaded.retrain_output_layer(bank, labels, &engine);
    expect_same_output_layer(serial, threaded, n);
  }
}

// End-to-end: the scalar oracle retrained on a trained model's own RINC
// bank must match the output layer PoetBin::train fitted, neuron for neuron
// and prediction for prediction.
TEST(OutputLayerRetrain, EndToEndTrainMatchesScalarPath) {
  const std::size_t n = 400;
  const auto data = testing::prototype_dataset(n, 48, 5);
  BitMatrix intermediate(n, 4 * 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) {
      const bool is_class = data.labels[i] % 4 == static_cast<int>(c);
      for (std::size_t j = 0; j < 3; ++j) {
        intermediate.set(i, c * 3 + j,
                         is_class != data.features.get(i, (c * 3 + j) % 48));
      }
    }
  }
  std::vector<int> labels = data.labels;
  for (auto& label : labels) label %= 4;

  PoetBinConfig config;
  config.n_classes = 4;
  config.rinc.lut_inputs = 3;
  config.rinc.levels = 1;
  config.rinc.total_dts = 3;
  config.output.epochs = 60;
  const PoetBin word =
      PoetBin::train(data.features, intermediate, labels, config);
  const PoetBin scalar = reference::retrain_output_layer_scalar(
      word, config, reference::rinc_outputs(word, data.features), labels);
  expect_same_output_layer(scalar, word, n);
  EXPECT_EQ(reference::predict_dataset(scalar, data.features),
            reference::predict_dataset(word, data.features));
}

// The word path gathers through lut_reduce planes whose tail bits are
// garbage; dirty column tails must change nothing (they are masked in both
// the key packing and the gather).
TEST(OutputLayerRetrain, ToleratesDirtyColumnTailWords) {
  const std::size_t n = 70;
  const BitMatrix clean = random_bits(n, 3 * 4, 55);
  BitMatrix dirty = clean;
  for (std::size_t c = 0; c < dirty.cols(); ++c) {
    dirty.column(c).words()[dirty.word_count() - 1] |= ~0ULL << (n % 64);
  }
  const std::vector<int> labels = random_labels(n, 3, 56);
  OutputLayerConfig cfg;
  cfg.epochs = 30;
  const PoetBin scalar = scalar_retrain(3, 4, cfg, clean, labels);
  PoetBin word = make_shell(3, 4, cfg);
  word.retrain_output_layer(dirty, labels);
  expect_same_output_layer(scalar, word, n);
}

// --- validation regressions ------------------------------------------------

TEST(OutputLayerValidation, RejectsOutOfRangeLabels) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const BitMatrix bank = random_bits(50, 3 * 2, 60);
  OutputLayerConfig cfg;
  cfg.epochs = 1;
  for (const int bad : {-1, 3, 100}) {
    std::vector<int> labels = random_labels(50, 3, 61);
    labels[17] = bad;
    PoetBin model = make_shell(3, 2, cfg);
    EXPECT_DEATH(model.retrain_output_layer(bank, labels),
                 "label out of range")
        << "label " << bad;
  }
}

TEST(OutputLayerValidation, TrainRejectsOutOfRangeLabelsBeforeDistilling) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto data = testing::prototype_dataset(60, 24, 62);
  BitMatrix intermediate(60, 3 * 2);
  PoetBinConfig config;
  config.n_classes = 3;
  config.rinc.lut_inputs = 2;
  std::vector<int> labels(60, 0);
  labels[5] = 3;  // == n_classes
  EXPECT_DEATH(PoetBin::train(data.features, intermediate, labels, config),
               "label out of range");
}

TEST(OutputLayerValidation, RejectsNarrowRincBank) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const BitMatrix narrow = random_bits(40, 3 * 2 - 1, 63);
  const std::vector<int> labels = random_labels(40, 3, 64);
  OutputLayerConfig cfg;
  cfg.epochs = 1;
  PoetBin model = make_shell(3, 2, cfg);
  EXPECT_DEATH(model.retrain_output_layer(narrow, labels),
               "narrower than nc x P");
}

TEST(OutputLayerValidation, RejectsLabelCountMismatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const BitMatrix bank = random_bits(40, 3 * 2, 65);
  const std::vector<int> labels = random_labels(39, 3, 66);
  OutputLayerConfig cfg;
  cfg.epochs = 1;
  PoetBin model = make_shell(3, 2, cfg);
  EXPECT_DEATH(model.retrain_output_layer(bank, labels),
               "one class label per RINC output row");
}

}  // namespace
}  // namespace poetbin
