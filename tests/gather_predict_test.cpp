// PoetBin::predict (the compiled gather program) against the per-bit
// scalar walk in tests/reference, on every available word backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "boost/mat.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "dt/lut.h"
#include "reference/scalar_reference.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/word_backend.h"

namespace poetbin {
namespace {

// `force_last`, while set, makes the next leaf built read the last
// feature (and clears it), so the model's n_features() is exact.
Lut random_lut(std::size_t arity, std::size_t n_features, Rng& rng,
               bool* force_last) {
  std::vector<std::size_t> inputs(arity);
  for (auto& input : inputs) input = rng.next_index(n_features);
  if (arity > 0 && *force_last) {
    inputs[0] = n_features - 1;
    *force_last = false;
  }
  BitVector table(std::size_t{1} << arity);
  for (std::size_t a = 0; a < table.size(); ++a) table.set(a, rng.next_bool());
  return Lut(std::move(inputs), std::move(table));
}

RincModule random_rinc(std::size_t level, std::size_t fanin,
                       std::size_t leaf_arity, std::size_t n_features,
                       Rng& rng, bool* force_last) {
  if (level == 0) {
    return RincModule::make_leaf(
        random_lut(leaf_arity, n_features, rng, force_last));
  }
  std::vector<RincModule> children;
  for (std::size_t c = 0; c < fanin; ++c) {
    children.push_back(random_rinc(level - 1, fanin, leaf_arity, n_features,
                                   rng, force_last));
  }
  std::vector<double> alphas(fanin);
  for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
  return RincModule::make_internal(std::move(children), MatModule(alphas));
}

struct Shape {
  std::size_t p = 3;           // output-neuron arity (modules per class)
  std::size_t n_classes = 4;
  std::vector<std::size_t> levels = {1};  // cycled over the modules
  std::size_t fanin = 2;
  std::size_t leaf_arity = 4;
  std::size_t n_features = 300;
};

// Random modules, scrambled output wiring (any module may feed any
// neuron) and a small code range so argmax ties are common. The first
// leaf with inputs reads the last feature, so n_features() is exact.
PoetBin random_model(const Shape& shape, Rng& rng) {
  PoetBinConfig config;
  config.rinc.lut_inputs = shape.p;
  config.n_classes = shape.n_classes;
  const std::size_t n_modules = shape.n_classes * shape.p;
  std::vector<RincModule> modules;
  bool force_last = true;
  for (std::size_t m = 0; m < n_modules; ++m) {
    modules.push_back(random_rinc(shape.levels[m % shape.levels.size()],
                                  shape.fanin, shape.leaf_arity,
                                  shape.n_features, rng, &force_last));
  }
  const QuantizerParams quantizer;
  std::vector<SparseOutputNeuron> neurons(shape.n_classes);
  for (auto& neuron : neurons) {
    neuron.weights.assign(shape.p, 0.0f);
    for (std::size_t j = 0; j < shape.p; ++j) {
      neuron.input_modules.push_back(rng.next_index(n_modules));
    }
    neuron.codes.resize(std::size_t{1} << shape.p);
    for (auto& code : neuron.codes) {
      code = static_cast<std::uint32_t>(rng.next_index(4));
    }
  }
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

BitVector random_example(std::size_t n_bits, Rng& rng) {
  BitVector bits(n_bits);
  for (std::size_t w = 0; w < bits.word_count(); ++w) {
    bits.words()[w] = rng.next_u64();
  }
  bits.mask_tail_word();
  return bits;
}

// Every available backend: predict == walk on `n` random examples of
// `width` bits.
void expect_matches_walk(const PoetBin& model, std::size_t width,
                         std::size_t n, std::uint64_t seed) {
  const testing::BackendGuard guard;
  Rng rng(seed);
  std::vector<BitVector> examples;
  for (std::size_t i = 0; i < n; ++i) {
    examples.push_back(random_example(width, rng));
  }
  std::vector<int> want;
  for (const auto& example : examples) {
    want.push_back(reference::predict_walk(model, example));
  }
  for (const WordBackend backend : available_word_backends()) {
    set_word_backend(backend);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(model.predict(examples[i]), want[i])
          << word_backend_name(backend) << " example " << i;
    }
  }
}

TEST(GatherPredict, MatchesWalkAtEveryLeafArity) {
  for (const std::size_t arity :
       {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 10u, 12u, 16u}) {
    SCOPED_TRACE(arity);
    Rng rng(100 + arity);
    Shape shape;
    shape.leaf_arity = arity;
    shape.fanin = arity >= 12 ? 2 : 3;
    const PoetBin model = random_model(shape, rng);
    EXPECT_EQ(model.n_features(), arity == 0 ? 0u : shape.n_features);
    expect_matches_walk(model, shape.n_features, 64, arity);
  }
}

TEST(GatherPredict, MatchesWalkAtEveryRincLevel) {
  // RINC-0, RINC-1, RINC-2, and a bank mixing all three. P = 5 with
  // fanin 5 puts 1,250 leaves under the RINC-2 bank, so its MAT level
  // gathers from a result buffer wider than 128 bytes.
  for (const auto& levels : std::vector<std::vector<std::size_t>>{
           {0}, {1}, {2}, {0, 2, 1}}) {
    SCOPED_TRACE(levels.size() == 1 ? levels[0] : 99);
    Rng rng(7 + levels.size() * 10 + levels[0]);
    Shape shape;
    shape.p = 5;
    shape.n_classes = 10;
    shape.levels = levels;
    shape.fanin = 5;
    shape.leaf_arity = 6;
    shape.n_features = 700;
    expect_matches_walk(random_model(shape, rng), shape.n_features, 48,
                        levels[0]);
  }
}

TEST(GatherPredict, MatchesWalkAtEveryFeatureWidth) {
  // Widths at the word and at the gather kernel's 64- and 128-byte
  // source bounds, then one past 64 KiB, where level 0 stages the bytes
  // it reads.
  for (const std::size_t width : {1u, 63u, 64u, 65u, 511u, 512u, 513u, 1024u,
                                  1025u, 2048u, (1u << 19) + 77u}) {
    SCOPED_TRACE(width);
    Rng rng(width);
    Shape shape;
    shape.n_features = width;
    shape.leaf_arity = std::min<std::size_t>(width, 6);
    const PoetBin model = random_model(shape, rng);
    EXPECT_EQ(model.n_features(), width);
    expect_matches_walk(model, width, 48, width);
    // Wider examples: the bits past n_features() are set at random and
    // must not matter.
    expect_matches_walk(model, width + 131, 48, width + 1);
  }
}

TEST(GatherPredict, ConstantLeavesServeAnEmptyExample) {
  // Arity-0 leaves read no feature: n_features() is 0 and a zero-width
  // example (no words at all) must predict without touching its bytes.
  Rng rng(11);
  Shape shape;
  shape.leaf_arity = 0;
  const PoetBin model = random_model(shape, rng);
  ASSERT_EQ(model.n_features(), 0u);
  const testing::BackendGuard guard;
  for (const WordBackend backend : available_word_backends()) {
    set_word_backend(backend);
    EXPECT_EQ(model.predict(BitVector()),
              reference::predict_walk(model, BitVector()))
        << word_backend_name(backend);
  }
}

TEST(GatherPredict, BitsPastFeatureWidthAreIgnored) {
  Rng rng(42);
  Shape shape;
  shape.n_features = 65;
  const PoetBin model = random_model(shape, rng);
  for (std::size_t i = 0; i < 32; ++i) {
    const BitVector exact = random_example(65, rng);
    BitVector wide(65 + 200, true);
    for (std::size_t b = 0; b < 65; ++b) wide.set(b, exact.get(b));
    EXPECT_EQ(model.predict(wide), model.predict(exact));
    EXPECT_EQ(model.predict(wide), reference::predict_walk(model, exact));
  }
}

TEST(GatherPredict, CopyPredictsAfterSourceIsDestroyed) {
  Rng rng(9);
  Shape shape;
  shape.levels = {2};
  shape.n_features = 1500;
  auto source = std::make_unique<PoetBin>(random_model(shape, rng));
  const PoetBin copy = *source;
  std::vector<BitVector> examples;
  std::vector<int> want;
  for (std::size_t i = 0; i < 32; ++i) {
    examples.push_back(random_example(shape.n_features, rng));
    want.push_back(source->predict(examples.back()));
  }
  source.reset();
  for (std::size_t i = 0; i < examples.size(); ++i) {
    EXPECT_EQ(copy.predict(examples[i]), want[i]);
    EXPECT_EQ(copy.predict(examples[i]),
              reference::predict_walk(copy, examples[i]));
  }
}

TEST(GatherPredictDeathTest, TooShortExampleFailsTheCheck) {
  Rng rng(3);
  Shape shape;
  shape.n_features = 130;
  const PoetBin model = random_model(shape, rng);
  EXPECT_DEATH(model.predict(BitVector(129)), "narrower");
}

// The derivation n_features() replaced: highest distinct feature + 1.
std::size_t derived_width(const PoetBin& model) {
  std::size_t width = 0;
  for (const auto& module : model.modules()) {
    for (const auto f : module.distinct_features()) {
      width = std::max(width, f + 1);
    }
  }
  return width;
}

TEST(GatherPredict, FeatureWidthSurvivesFromPartsTrainRetrainAndCopy) {
  Rng rng(5);
  Shape shape;
  shape.n_features = 777;
  const PoetBin built = random_model(shape, rng);
  EXPECT_EQ(built.n_features(), 777u);
  EXPECT_EQ(built.n_features(), derived_width(built));

  const BitMatrix features = testing::random_bits(200, 40, 6);
  const std::size_t p = 3, n_classes = 3;
  BitMatrix targets(200, n_classes * p);
  std::vector<int> labels(200);
  for (std::size_t i = 0; i < 200; ++i) {
    labels[i] = static_cast<int>(i % n_classes);
    for (std::size_t j = 0; j < n_classes * p; ++j) {
      targets.set(i, j, features.get(i, (j * 7) % 40) != (j % 2 == 0));
    }
  }
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.rinc.levels = 1;
  config.rinc.total_dts = p;
  config.n_classes = n_classes;
  config.output.epochs = 20;
  config.threads = 1;
  PoetBin trained = PoetBin::train(features, targets, labels, config);
  const std::size_t width = trained.n_features();
  EXPECT_EQ(width, derived_width(trained));
  EXPECT_GT(width, 0u);

  const BitMatrix bank = reference::rinc_outputs(trained, features);
  std::vector<int> shifted(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    shifted[i] = (labels[i] + 1) % static_cast<int>(n_classes);
  }
  trained.retrain_output_layer(bank, shifted);
  EXPECT_EQ(trained.n_features(), width);
  const PoetBin copy = trained;
  EXPECT_EQ(copy.n_features(), width);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(copy.predict(features.row(i)),
              reference::predict_walk(trained, features.row(i)));
  }
}

}  // namespace
}  // namespace poetbin
