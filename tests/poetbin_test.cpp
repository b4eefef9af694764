#include "core/poetbin.h"

#include <gtest/gtest.h>

#include "core/batch_eval.h"
#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

// Builds an intermediate-target matrix from simple boolean functions of the
// features so PoetBin has clean per-neuron distillation targets, with the
// class recoverable from block majorities.
struct ToyProblem {
  BinaryDataset data;       // features + class labels
  BitMatrix intermediate;   // n x (nc * P) teacher bits
};

ToyProblem make_toy(std::size_t n, std::size_t p, std::size_t n_classes,
                    std::uint64_t seed) {
  ToyProblem toy;
  toy.data = testing::prototype_dataset(n, 64, seed);
  toy.data.n_classes = n_classes;
  for (auto& label : toy.data.labels) {
    label = label % static_cast<int>(n_classes);
  }
  // Teacher bit (c, j): "example belongs to class c" XOR a feature bit —
  // a distillable function correlated with the class.
  toy.intermediate = BitMatrix(n, n_classes * p);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < n_classes; ++c) {
      const bool is_class = toy.data.labels[i] == static_cast<int>(c);
      for (std::size_t j = 0; j < p; ++j) {
        const bool feature_bit = toy.data.features.get(i, (c * p + j) % 64);
        toy.intermediate.set(i, c * p + j, is_class != (j % 2 == 0 && !feature_bit));
      }
    }
  }
  return toy;
}

PoetBinConfig toy_config(std::size_t p, std::size_t n_classes) {
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.rinc.levels = 1;
  config.rinc.total_dts = p;
  config.n_classes = n_classes;
  config.output.epochs = 150;
  return config;
}

// Accuracy of the fused word pass on `data`.
double accuracy(const PoetBin& model, const BinaryDataset& data) {
  return prediction_accuracy(
      model.predict_dataset_batched(data.features, BatchEngine(1)),
      data.labels);
}

TEST(PoetBin, ShapesAndLutCount) {
  const ToyProblem toy = make_toy(600, 4, 5, 1);
  const PoetBinConfig config = toy_config(4, 5);
  const PoetBin model = PoetBin::train(toy.data.features, toy.intermediate,
                                       toy.data.labels, config);
  EXPECT_EQ(model.n_modules(), 20u);
  EXPECT_EQ(model.n_classes(), 5u);
  // Each RINC-1: 4 DTs + 1 MAT; output layer: 8 LUTs x 5 classes.
  EXPECT_EQ(model.lut_count(), 20u * 5u + 5u * 8u);
}

TEST(PoetBin, BeatsChanceComfortably) {
  const ToyProblem toy = make_toy(800, 4, 5, 2);
  const PoetBin model = PoetBin::train(toy.data.features, toy.intermediate,
                                       toy.data.labels, toy_config(4, 5));
  EXPECT_GT(accuracy(model, toy.data), 0.8);
}

TEST(PoetBin, PredictDatasetMatchesSinglePredict) {
  const ToyProblem toy = make_toy(300, 3, 4, 3);
  PoetBinConfig config = toy_config(3, 4);
  const PoetBin model = PoetBin::train(toy.data.features, toy.intermediate,
                                       toy.data.labels, config);
  const auto batch = reference::predict_dataset(model, toy.data.features);
  EXPECT_EQ(model.predict_dataset_batched(toy.data.features, BatchEngine(2)),
            batch);
  for (std::size_t i = 0; i < 50; ++i) {
    const BitVector row = toy.data.features.row(i);
    EXPECT_EQ(batch[i], reference::predict_walk(model, row)) << i;
    EXPECT_EQ(model.predict(row), batch[i]) << i;
  }
}

TEST(PoetBin, RincOutputsShapeAndFidelity) {
  const ToyProblem toy = make_toy(500, 4, 5, 4);
  const PoetBin model = PoetBin::train(toy.data.features, toy.intermediate,
                                       toy.data.labels, toy_config(4, 5));
  const BitMatrix outputs =
      BatchEngine(1).rinc_outputs(model, toy.data.features);
  EXPECT_EQ(outputs.rows(), 500u);
  EXPECT_EQ(outputs.cols(), 20u);
  const double fidelity =
      PoetBin::intermediate_fidelity(outputs, toy.intermediate);
  EXPECT_GT(fidelity, 0.8);  // RINC must substantially reproduce the teacher
}

TEST(PoetBin, IntermediateFidelityIdentityIsOne) {
  BitMatrix bits = testing::random_bits(40, 12, 5);
  EXPECT_DOUBLE_EQ(PoetBin::intermediate_fidelity(bits, bits), 1.0);
  BitMatrix flipped = bits;
  for (std::size_t c = 0; c < flipped.cols(); ++c) {
    BitVector& column = flipped.column(c);
    for (std::size_t i = 0; i < column.size(); ++i) {
      column.set(i, !column.get(i));
    }
  }
  EXPECT_DOUBLE_EQ(PoetBin::intermediate_fidelity(bits, flipped), 0.0);
}

TEST(PoetBin, OutputCodesAreWithinQuantRange) {
  const ToyProblem toy = make_toy(300, 4, 5, 6);
  PoetBinConfig config = toy_config(4, 5);
  config.output.quant_bits = 4;
  const PoetBin model = PoetBin::train(toy.data.features, toy.intermediate,
                                       toy.data.labels, config);
  for (const auto& neuron : model.output_neurons()) {
    EXPECT_EQ(neuron.codes.size(), std::size_t{1} << 4);
    for (const auto code : neuron.codes) EXPECT_LT(code, 16u);
  }
}

TEST(PoetBin, QuantizedCodesFollowActivations) {
  const ToyProblem toy = make_toy(300, 3, 4, 7);
  const PoetBin model = PoetBin::train(toy.data.features, toy.intermediate,
                                       toy.data.labels, toy_config(3, 4));
  const QuantizerParams& q = model.quantizer();
  for (const auto& neuron : model.output_neurons()) {
    for (std::size_t combo = 0; combo < neuron.codes.size(); ++combo) {
      EXPECT_EQ(neuron.codes[combo], quantize_value(neuron.activation(combo), q));
    }
  }
}

TEST(PoetBin, BlockWiringIsContiguous) {
  const ToyProblem toy = make_toy(200, 4, 5, 8);
  const PoetBin model = PoetBin::train(toy.data.features, toy.intermediate,
                                       toy.data.labels, toy_config(4, 5));
  for (std::size_t c = 0; c < model.n_classes(); ++c) {
    const auto& inputs = model.output_neurons()[c].input_modules;
    ASSERT_EQ(inputs.size(), 4u);
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(inputs[j], c * 4 + j);
  }
}

TEST(PoetBin, EightBitBeatsOneBitQuantization) {
  const ToyProblem toy = make_toy(700, 4, 5, 9);
  PoetBinConfig coarse = toy_config(4, 5);
  coarse.output.quant_bits = 1;
  PoetBinConfig fine = toy_config(4, 5);
  fine.output.quant_bits = 8;
  const PoetBin coarse_model = PoetBin::train(
      toy.data.features, toy.intermediate, toy.data.labels, coarse);
  const PoetBin fine_model = PoetBin::train(toy.data.features, toy.intermediate,
                                            toy.data.labels, fine);
  EXPECT_GE(accuracy(fine_model, toy.data) + 0.02,
            accuracy(coarse_model, toy.data));
}

TEST(PoetBin, RejectsMismatchedIntermediateWidth) {
  const ToyProblem toy = make_toy(100, 4, 5, 10);
  PoetBinConfig config = toy_config(4, 5);
  config.n_classes = 6;  // 6*4 != 20 columns
  EXPECT_DEATH(PoetBin::train(toy.data.features, toy.intermediate,
                              toy.data.labels, config),
               "");
}

}  // namespace
}  // namespace poetbin
