#include "core/rinc_conv.h"

#include <gtest/gtest.h>

#include "core/batch_eval.h"
#include "dt/lut.h"
#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

// Binary input maps with a known boolean teacher conv on top.
struct ConvProblem {
  BitMatrix inputs;   // n x C*H*W
  BitMatrix targets;  // n x out_c*oh*ow
  BinShape3 in_shape;
};

// Teacher channel 0: centre pixel of the 3x3 patch; channel 1: OR of the
// four edge-neighbours. Both are exact functions of <= 5 patch bits, so a
// P>=5 RINC-0 should learn them perfectly.
ConvProblem make_problem(std::size_t n, std::uint64_t seed) {
  ConvProblem problem;
  problem.in_shape = {1, 8, 8};
  Rng rng(seed);
  problem.inputs = BitMatrix(n, problem.in_shape.flat());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < problem.in_shape.flat(); ++k) {
      if (rng.next_bool()) problem.inputs.set(i, k, true);
    }
  }

  auto pixel = [&](std::size_t i, long r, long c) {
    if (r < 0 || c < 0 || r >= 8 || c >= 8) return false;
    return problem.inputs.get(i, static_cast<std::size_t>(r) * 8 +
                                     static_cast<std::size_t>(c));
  };
  problem.targets = BitMatrix(n, 2 * 8 * 8);
  for (std::size_t i = 0; i < n; ++i) {
    for (long r = 0; r < 8; ++r) {
      for (long c = 0; c < 8; ++c) {
        const std::size_t p = static_cast<std::size_t>(r) * 8 +
                              static_cast<std::size_t>(c);
        problem.targets.set(i, p, pixel(i, r, c));
        const bool any_edge = pixel(i, r - 1, c) || pixel(i, r + 1, c) ||
                              pixel(i, r, c - 1) || pixel(i, r, c + 1);
        problem.targets.set(i, 64 + p, any_edge);
      }
    }
  }
  return problem;
}

RincConvConfig base_config() {
  RincConvConfig config;
  config.out_channels = 2;
  config.kernel = 3;
  config.stride = 1;
  config.padding = 1;
  config.rinc = {.lut_inputs = 5, .levels = 1, .total_dts = 5};
  return config;
}

// Fraction of the layer's output bits matching `targets` (distillation
// fidelity), from the word pass.
double fidelity(const RincConvLayer& layer, const BitMatrix& inputs,
                const BitMatrix& targets) {
  const BatchEngine engine(1);
  return PoetBin::intermediate_fidelity(
      layer.eval_dataset_batched(inputs, engine), targets);
}

TEST(RincConv, OutputShapes) {
  const ConvProblem problem = make_problem(20, 1);
  const RincConvLayer layer = RincConvLayer::train(
      problem.inputs, problem.in_shape, problem.targets, base_config());
  EXPECT_EQ(layer.output_shape(), (BinShape3{2, 8, 8}));
  EXPECT_EQ(layer.patch_bits(), 9u);
  const BatchEngine engine(1);
  const BitMatrix out = layer.eval_dataset_batched(problem.inputs, engine);
  EXPECT_EQ(out.rows(), 20u);
  EXPECT_EQ(out.cols(), 128u);
}

TEST(RincConv, LearnsExactPatchFunctions) {
  const ConvProblem problem = make_problem(60, 2);
  const RincConvLayer layer = RincConvLayer::train(
      problem.inputs, problem.in_shape, problem.targets, base_config());
  // Both teacher channels are functions of <= 5 patch bits; the pooled
  // patch dataset (60 x 64 rows) covers the space, so fidelity must be 1.
  EXPECT_DOUBLE_EQ(fidelity(layer, problem.inputs, problem.targets), 1.0);
}

TEST(RincConv, GeneralisesToFreshInputs) {
  const ConvProblem train_problem = make_problem(60, 3);
  const RincConvLayer layer =
      RincConvLayer::train(train_problem.inputs, train_problem.in_shape,
                           train_problem.targets, base_config());
  const ConvProblem test_problem = make_problem(30, 999);
  EXPECT_DOUBLE_EQ(
      fidelity(layer, test_problem.inputs, test_problem.targets), 1.0);
}

TEST(RincConv, WeightSharingIsTranslationEquivariant) {
  const ConvProblem problem = make_problem(40, 4);
  const RincConvLayer layer = RincConvLayer::train(
      problem.inputs, problem.in_shape, problem.targets, base_config());

  // One lit pixel at (3, 3) vs (4, 5): channel outputs must shift with it.
  BitVector a(64);
  a.set(3 * 8 + 3, true);
  BitVector b(64);
  b.set(4 * 8 + 5, true);
  const BitVector* frames[] = {&a, &b};
  const BitMatrix out =
      layer.eval_dataset_batched(BitMatrix::from_rows(frames), BatchEngine(1));
  for (std::size_t channel = 0; channel < 2; ++channel) {
    for (long dr = -1; dr <= 1; ++dr) {
      for (long dc = -1; dc <= 1; ++dc) {
        const std::size_t pa = static_cast<std::size_t>((3 + dr) * 8 + 3 + dc);
        const std::size_t pb = static_cast<std::size_t>((4 + dr) * 8 + 5 + dc);
        EXPECT_EQ(out.get(0, channel * 64 + pa), out.get(1, channel * 64 + pb))
            << "channel " << channel << " offset " << dr << "," << dc;
      }
    }
  }
}

TEST(RincConv, StrideAndValidPadding) {
  const ConvProblem problem = make_problem(20, 5);
  RincConvConfig config = base_config();
  config.stride = 2;
  config.padding = 0;
  // Output 3x3 per channel: (8 - 3)/2 + 1.
  BitMatrix targets(problem.inputs.rows(), 2 * 3 * 3);
  const RincConvLayer layer = RincConvLayer::train(
      problem.inputs, problem.in_shape, targets, config);
  EXPECT_EQ(layer.output_shape(), (BinShape3{2, 3, 3}));
}

TEST(RincConv, LutCountIsPerChannelSum) {
  const ConvProblem problem = make_problem(20, 6);
  RincConvConfig config = base_config();
  config.rinc = {.lut_inputs = 3, .levels = 1, .total_dts = 3};
  const RincConvLayer layer = RincConvLayer::train(
      problem.inputs, problem.in_shape, problem.targets, config);
  // 2 channels x (3 DTs + 1 MAT).
  EXPECT_EQ(layer.lut_count_per_position(), 2u * 4u);
  EXPECT_EQ(layer.channel_modules().size(), 2u);
}

TEST(RincConv, PatchSubsamplingStillLearns) {
  const ConvProblem problem = make_problem(60, 7);
  RincConvConfig config = base_config();
  config.max_train_patches = 500;  // force subsampling (60*64 = 3840 rows)
  const RincConvLayer layer = RincConvLayer::train(
      problem.inputs, problem.in_shape, problem.targets, config);
  EXPECT_GT(fidelity(layer, problem.inputs, problem.targets), 0.95);
}

// --- bitsliced path: bit-identity against the scalar oracle ---------------

struct ConvGeom {
  BinShape3 in_shape;
  std::size_t out_channels;
  std::size_t kernel;
  std::size_t stride;
  std::size_t padding;
};

// The acceptance bar for eval_dataset_batched: bit-identical to the scalar
// reference::conv_eval_dataset on every available word backend and several
// engine widths,
// across geometries that stress each indexing path of the padded,
// stride-phase-split frame (pointwise 1x1, strided, stride 3, stride above
// the kernel, kernel 5, maximum padding, multi-channel, non-square) and
// example counts straddling the 64-bit word boundary, the 16-word chunk
// boundary and full 8-word SIMD blocks (n = 1 is the single-frame case).
TEST(RincConvBatched, BitIdenticalAcrossShapesBackendsAndThreads) {
  const std::vector<ConvGeom> geoms = {
      {{1, 8, 8}, 2, 3, 1, 1},  // canonical same-size conv
      {{2, 8, 8}, 2, 1, 1, 0},  // pointwise 1x1
      {{1, 8, 8}, 2, 3, 2, 0},  // kernel > stride, valid padding
      {{1, 8, 8}, 2, 3, 1, 2},  // padding = kernel - 1 (max legal)
      {{3, 6, 6}, 2, 2, 2, 0},  // multi-channel, stride = kernel
      {{2, 7, 5}, 3, 3, 2, 1},  // non-square frame, every knob odd
      {{2, 11, 10}, 2, 3, 3, 1},  // stride 3: three phases per row
      {{1, 9, 9}, 2, 2, 3, 0},  // stride above the kernel: skipped pixels
      {{1, 9, 8}, 2, 5, 1, 2},  // kernel 5, padding 2
  };
  testing::BackendGuard guard;
  std::uint64_t seed = 500;
  for (const ConvGeom& geom : geoms) {
    RincConvConfig config;
    config.out_channels = geom.out_channels;
    config.kernel = geom.kernel;
    config.stride = geom.stride;
    config.padding = geom.padding;
    // The pointwise geometry exposes only 2 patch bits; shrink the module
    // to fit (RincConfig requires arity >= 2).
    const std::size_t patch_bits =
        geom.in_shape.channels * geom.kernel * geom.kernel;
    if (patch_bits >= 4) {
      config.rinc = {.lut_inputs = 4, .levels = 1, .total_dts = 4};
    } else {
      config.rinc = {.lut_inputs = 2, .levels = 0, .total_dts = 1};
    }
    const std::size_t out_h =
        (geom.in_shape.height + 2 * geom.padding - geom.kernel) / geom.stride +
        1;
    const std::size_t out_w =
        (geom.in_shape.width + 2 * geom.padding - geom.kernel) / geom.stride +
        1;
    // Random targets: fidelity is irrelevant here, the layer just has to be
    // a real trained artefact with non-trivial modules.
    const BitMatrix train_inputs =
        testing::random_bits(40, geom.in_shape.flat(), seed++);
    const BitMatrix targets = testing::random_bits(
        40, geom.out_channels * out_h * out_w, seed++);
    const RincConvLayer layer =
        RincConvLayer::train(train_inputs, geom.in_shape, targets, config);
    ASSERT_EQ(layer.output_shape(),
              (BinShape3{geom.out_channels, out_h, out_w}));

    for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 1025u, 2100u}) {
      const BitMatrix inputs =
          testing::random_bits(n, geom.in_shape.flat(), seed++);
      const BitMatrix want = reference::conv_eval_dataset(layer, inputs);
      for (const WordBackend backend : available_word_backends()) {
        set_word_backend(backend);
        for (const std::size_t threads : {1u, 2u, 5u}) {
          const BatchEngine engine(threads);
          EXPECT_EQ(layer.eval_dataset_batched(inputs, engine), want)
              << word_backend_name(backend) << " x" << threads << " n=" << n
              << " kernel=" << geom.kernel << " stride=" << geom.stride
              << " padding=" << geom.padding;
        }
      }
    }
  }
}

// The fused ConvModel path (bitsliced conv pass + fused classifier argmax)
// against the scalar conv + scalar classifier oracle.
TEST(RincConvBatched, ConvModelFusedPredictMatchesScalar) {
  const ConvProblem problem = make_problem(90, 21);
  ConvModel model;
  model.conv = RincConvLayer::train(problem.inputs, problem.in_shape,
                                    problem.targets, base_config());
  const BitMatrix conv_out =
      model.conv.eval_dataset_batched(problem.inputs, BatchEngine(1));
  std::vector<int> labels(problem.inputs.rows());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 4);
  }
  BitMatrix intermediate(conv_out.rows(), 4 * 3);
  for (std::size_t i = 0; i < intermediate.rows(); ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      intermediate.set(i, j, labels[i] == static_cast<int>(j / 3));
    }
  }
  PoetBinConfig classifier_config;
  classifier_config.rinc = {.lut_inputs = 3, .levels = 1, .total_dts = 3};
  classifier_config.n_classes = 4;
  classifier_config.output.epochs = 10;
  model.classifier =
      PoetBin::train(conv_out, intermediate, labels, classifier_config);

  const std::vector<int> want =
      reference::predict_dataset(model, problem.inputs);
  // The single-frame path (a one-row word pass) agrees with the oracle.
  for (std::size_t i = 0; i < problem.inputs.rows(); ++i) {
    EXPECT_EQ(model.predict(problem.inputs.row(i)), want[i]);
  }
  testing::BackendGuard guard;
  for (const WordBackend backend : available_word_backends()) {
    set_word_backend(backend);
    for (const std::size_t threads : {1u, 2u, 5u}) {
      const BatchEngine engine(threads);
      EXPECT_EQ(model.predict_dataset_batched(problem.inputs, engine), want)
          << word_backend_name(backend) << " x" << threads;
    }
  }
}

// --- geometry validation: malformed configs abort with named contracts ----

TEST(RincConvValidateDeathTest, RejectsMalformedGeometry) {
  const BinShape3 shape{1, 8, 8};
  RincConvConfig config = base_config();
  config.kernel = 0;
  EXPECT_DEATH(RincConvLayer::validate(shape, config), "");
  config = base_config();
  config.stride = 0;
  EXPECT_DEATH(RincConvLayer::validate(shape, config), "");
  config = base_config();
  config.out_channels = 0;
  EXPECT_DEATH(RincConvLayer::validate(shape, config), "");
  config = base_config();
  config.padding = config.kernel;  // all-padding patches admitted
  EXPECT_DEATH(RincConvLayer::validate(shape, config), "");
  config = base_config();
  EXPECT_DEATH(RincConvLayer::validate({0, 8, 8}, config), "");
  EXPECT_DEATH(RincConvLayer::validate({1, 0, 8}, config), "");
  EXPECT_DEATH(RincConvLayer::validate({1, 8, 0}, config), "");
  // kernel 3 cannot fit an unpadded 2x2 frame.
  config.padding = 0;
  EXPECT_DEATH(RincConvLayer::validate({1, 2, 2}, config), "");
}

TEST(RincConvValidateDeathTest, FromPartsRejectsInconsistentModules) {
  BitVector id_table(2);
  id_table.set(1, true);
  const auto leaf_on = [&](std::size_t feature) {
    return RincModule::make_leaf(Lut({feature}, id_table));
  };
  RincConvConfig config = base_config();  // out_channels=2, patch_bits=9

  // Wrong module count: one module for two output channels.
  std::vector<RincModule> one;
  one.push_back(leaf_on(0));
  EXPECT_DEATH(
      RincConvLayer::from_parts({1, 8, 8}, config, std::move(one)), "");

  // A module wired beyond the patch width (feature 9 of a 9-bit patch).
  std::vector<RincModule> wired;
  wired.push_back(leaf_on(0));
  wired.push_back(leaf_on(9));
  EXPECT_DEATH(
      RincConvLayer::from_parts({1, 8, 8}, config, std::move(wired)), "");

  // The same parts with in-range wiring construct fine.
  std::vector<RincModule> good;
  good.push_back(leaf_on(0));
  good.push_back(leaf_on(8));
  const RincConvLayer layer =
      RincConvLayer::from_parts({1, 8, 8}, config, std::move(good));
  EXPECT_EQ(layer.output_shape(), (BinShape3{2, 8, 8}));
}

}  // namespace
}  // namespace poetbin
