// The batch engine's contract is exact: bitsliced and threaded paths must be
// bit-identical to the column-scan oracles in tests/reference on any model
// and any dataset shape, including ragged tails (rows % 64 != 0) and empty
// inputs.
#include "core/batch_eval.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/poetbin.h"
#include "core/rinc.h"
#include "dt/lut.h"
#include "nn/quantize.h"
#include "reference/scalar_reference.h"
#include "test_util.h"
#include "util/rng.h"

namespace poetbin {
namespace {

Lut random_lut(std::size_t arity, std::size_t n_features, Rng& rng) {
  std::vector<std::size_t> inputs(arity);
  for (auto& input : inputs) input = rng.next_index(n_features);
  BitVector table(std::size_t{1} << arity);
  for (std::size_t a = 0; a < table.size(); ++a) {
    table.set(a, rng.next_bool());
  }
  return Lut(std::move(inputs), std::move(table));
}

// Random RINC hierarchy of the given level with `fanin` children per node.
RincModule random_rinc(std::size_t level, std::size_t fanin,
                       std::size_t n_features, Rng& rng) {
  if (level == 0) return RincModule::make_leaf(random_lut(fanin, n_features, rng));
  std::vector<RincModule> children;
  for (std::size_t c = 0; c < fanin; ++c) {
    children.push_back(random_rinc(level - 1, fanin, n_features, rng));
  }
  std::vector<double> alphas(fanin);
  for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
  return RincModule::make_internal(std::move(children), MatModule(alphas));
}

TEST(EvalLutWords, MatchesScalarAcrossAritiesAndShapes) {
  Rng rng(17);
  for (const std::size_t arity : {std::size_t{1}, std::size_t{3},
                                  std::size_t{6}, std::size_t{8}}) {
    for (const std::size_t rows :
         {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
          std::size_t{100}, std::size_t{128}, std::size_t{1000}}) {
      const BitMatrix features = testing::random_bits(rows, 32, rng.next_u64());
      const Lut lut = random_lut(arity, features.cols(), rng);
      EXPECT_EQ(RincModule::make_leaf(lut).eval_dataset_batched(features),
                reference::eval_dataset(lut, features))
          << "arity " << arity << ", rows " << rows;
    }
  }
}

TEST(EvalLutWords, EmptyDataset) {
  Rng rng(18);
  const BitMatrix features(0, 16);
  const Lut lut = random_lut(4, 16, rng);
  const BitVector out =
      RincModule::make_leaf(lut).eval_dataset_batched(features);
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(out, reference::eval_dataset(lut, features));
}

TEST(EvalLutWords, ConstantTablesMaskTheTail) {
  // A constant-1 LUT exercises the ragged-tail masking: without it, the
  // output's popcount would count garbage bits beyond rows().
  const BitMatrix features = testing::random_bits(70, 8, 3);
  const Lut one({0, 1}, BitVector(4, true));
  const BitVector out =
      RincModule::make_leaf(one).eval_dataset_batched(features);
  EXPECT_EQ(testing::popcount(out), 70u);
}

TEST(EvalLutWords, PartialWordRange) {
  Rng rng(19);
  const BitMatrix features = testing::random_bits(400, 24, 21);
  const Lut lut = random_lut(6, features.cols(), rng);
  const BitVector full = reference::eval_dataset(lut, features);
  // Evaluate words [2, 5) only and compare against the matching slice.
  std::vector<std::uint64_t> words(3);
  eval_rinc_words(RincModule::make_leaf(lut), column_pointers(features).data(),
                  features.cols(), 2, 5, words.data());
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(words[w], full.words()[2 + w]) << "word " << w;
  }
}

TEST(EvalRincWords, MatchesScalarOnRandomHierarchies) {
  Rng rng(23);
  for (const std::size_t level : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t rows : {std::size_t{65}, std::size_t{500}}) {
      const BitMatrix features = testing::random_bits(rows, 40, rng.next_u64());
      const RincModule module = random_rinc(level, 4, features.cols(), rng);
      EXPECT_EQ(module.eval_dataset_batched(features),
                reference::eval_dataset(module, features))
          << "level " << level << ", rows " << rows;
    }
  }
}

TEST(EvalRincWords, MatchesScalarOnTrainedModule) {
  // A trained module exercises realistic (non-random) tables and repeated
  // feature selections.
  const BitMatrix features = testing::random_bits(300, 24, 31);
  const BitVector targets = testing::targets_from(
      features, [](const BitVector& row) { return row.get(3) ^ row.get(17); },
      /*noise=*/0.05);
  RincConfig config;
  config.lut_inputs = 4;
  config.levels = 1;
  config.total_dts = 4;
  const RincModule module =
      RincModule::train(features, targets, /*weights=*/{}, config);
  EXPECT_EQ(module.eval_dataset_batched(features),
            reference::eval_dataset(module, features));
}

// A PoetBin assembled from random parts: `config.n_classes` x P random
// RINC-`level` modules of fan-in P over `n_features` features, and an
// output layer of random weights quantized to config.output.quant_bits.
PoetBin random_poetbin(const PoetBinConfig& config, std::size_t level,
                       std::size_t n_features, Rng& rng) {
  const std::size_t p = config.rinc.lut_inputs;
  const std::size_t n_modules = config.n_classes * p;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < n_modules; ++m) {
    modules.push_back(random_rinc(level, p, n_features, rng));
  }

  const std::size_t n_combos = std::size_t{1} << p;
  Matrix activations(config.n_classes, n_combos);
  std::vector<SparseOutputNeuron> neurons(config.n_classes);
  for (std::size_t c = 0; c < config.n_classes; ++c) {
    neurons[c].input_modules.resize(p);
    neurons[c].weights.resize(p);
    for (std::size_t j = 0; j < p; ++j) {
      neurons[c].input_modules[j] = c * p + j;
      neurons[c].weights[j] = static_cast<float>(rng.gaussian(0.0, 1.0));
    }
    neurons[c].bias = static_cast<float>(rng.gaussian(0.0, 0.5));
    for (std::size_t combo = 0; combo < n_combos; ++combo) {
      activations(c, combo) = neurons[c].activation(combo);
    }
  }
  const QuantizerParams quantizer =
      fit_quantizer(activations, config.output.quant_bits);
  for (std::size_t c = 0; c < config.n_classes; ++c) {
    neurons[c].codes.resize(n_combos);
    for (std::size_t combo = 0; combo < n_combos; ++combo) {
      neurons[c].codes[combo] =
          quantize_value(activations(c, combo), quantizer);
    }
  }
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

// A small bank of RINC-2 modules (fan-in 3) behind a 2-class output layer.
PoetBinConfig small_bank_config() {
  PoetBinConfig config;
  config.rinc.lut_inputs = 3;
  config.rinc.levels = 2;
  config.rinc.total_dts = 9;
  config.n_classes = 2;
  config.output.quant_bits = 4;
  return config;
}

TEST(BatchEngine, ThreadCountsAgreeWithScalar) {
  Rng rng(29);
  const BitMatrix features = testing::random_bits(3000, 32, 37);
  const PoetBin model =
      random_poetbin(small_bank_config(), 2, features.cols(), rng);
  const BitMatrix scalar = reference::rinc_outputs(model, features);
  const std::vector<int> scalar_preds =
      reference::predict_dataset(model, features);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    const BatchEngine engine(threads);
    EXPECT_EQ(engine.rinc_outputs(model, features), scalar)
        << threads << " threads";
    EXPECT_EQ(engine.predict_dataset(model, features), scalar_preds)
        << threads << " threads";
  }
}

TEST(BatchEngine, EngineIsReusableAcrossCalls) {
  Rng rng(31);
  const BatchEngine engine(4);
  for (int pass = 0; pass < 3; ++pass) {
    const BitMatrix features = testing::random_bits(700, 20, rng.next_u64());
    const PoetBin model =
        random_poetbin(small_bank_config(), 1, features.cols(), rng);
    EXPECT_EQ(engine.rinc_outputs(model, features),
              reference::rinc_outputs(model, features));
  }
}

TEST(BatchEngine, EmptyDataset) {
  Rng rng(37);
  const PoetBin model = random_poetbin(small_bank_config(), 1, 16, rng);
  const BatchEngine engine(2);
  const BitMatrix features(0, 16);
  const BitMatrix bank = engine.rinc_outputs(model, features);
  EXPECT_EQ(bank.rows(), 0u);
  EXPECT_EQ(bank.cols(), model.n_modules());
  EXPECT_TRUE(engine.predict_dataset(model, features).empty());
}

// A full PoetBin assembled from random parts: rinc_outputs / predict /
// accuracy must match the scalar oracles exactly.
class BatchEnginePoetBin : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(41);
    config_.rinc.lut_inputs = 4;
    config_.rinc.levels = 1;
    config_.rinc.total_dts = 4;
    config_.n_classes = 5;
    config_.output.quant_bits = 6;
    model_ = random_poetbin(config_, 1, 32, rng);
  }

  PoetBinConfig config_;
  PoetBin model_;
};

TEST_F(BatchEnginePoetBin, RincOutputsMatchScalar) {
  const BatchEngine engine(2);
  for (const std::size_t rows : {std::size_t{1}, std::size_t{64},
                                 std::size_t{129}, std::size_t{777}}) {
    const BitMatrix features = testing::random_bits(rows, 32, 43 + rows);
    EXPECT_EQ(engine.rinc_outputs(model_, features),
              reference::rinc_outputs(model_, features))
        << rows << " rows";
  }
}

TEST_F(BatchEnginePoetBin, PredictionsMatchScalarIncludingTies) {
  const BitMatrix features = testing::random_bits(1017, 32, 47);
  const std::vector<int> scalar = reference::predict_dataset(model_, features);
  const BatchEngine inline_engine(1);
  const BatchEngine threaded_engine(4);
  EXPECT_EQ(model_.predict_dataset_batched(features, inline_engine), scalar);
  EXPECT_EQ(model_.predict_dataset_batched(features, threaded_engine), scalar);
}

TEST_F(BatchEnginePoetBin, AccuracyMatchesScalar) {
  const BitMatrix features = testing::random_bits(501, 32, 53);
  Rng rng(59);
  std::vector<int> labels(features.rows());
  for (auto& label : labels) {
    label = static_cast<int>(rng.next_index(config_.n_classes));
  }
  const std::vector<int> scalar = reference::predict_dataset(model_, features);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    correct += scalar[i] == labels[i] ? 1 : 0;
  }
  const BatchEngine engine(3);
  EXPECT_DOUBLE_EQ(
      prediction_accuracy(engine.predict_dataset(model_, features), labels),
      static_cast<double>(correct) / static_cast<double>(labels.size()));
}

TEST_F(BatchEnginePoetBin, EmptyDataset) {
  const BitMatrix features(0, 32);
  const BatchEngine engine(1);
  EXPECT_TRUE(model_.predict_dataset_batched(features, engine).empty());
  EXPECT_EQ(prediction_accuracy(
                model_.predict_dataset_batched(features, engine), {}),
            0.0);
}

// The engine documents "one dataset pass at a time"; since PR 3 that
// contract is enforced. Dispatching a parallel_for from inside a job of the
// same engine must abort with a clear message instead of corrupting the
// pool's single job slot.
TEST(BatchEngineDeathTest, RejectsReentrantParallelFor) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const BatchEngine engine(2);
  EXPECT_DEATH(engine.parallel_for(
                   8,
                   [&](std::size_t) {
                     engine.parallel_for(8, [](std::size_t) {});
                   }),
               "not re-entrant");
}

// Sequential reuse (the supported pattern) must stay untouched by the
// in-use check, including after many passes.
TEST(BatchEngine, SequentialReuseAfterGuardedPasses) {
  const BatchEngine engine(3);
  for (int pass = 0; pass < 5; ++pass) {
    std::atomic<int> hits{0};
    engine.parallel_for(16, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 16);
  }
}

}  // namespace
}  // namespace poetbin
