#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace poetbin {
namespace {

// One shared tiny pipeline run (training three nets is the expensive part).
const PipelineResult& tiny_run() {
  static const PipelineResult result = [] {
    PipelineConfig config;
    config.data.family = SyntheticFamily::kDigits;
    config.data.seed = 5;
    config.n_train = 1000;
    config.n_test = 300;
    config.net.conv1_channels = 6;
    config.net.conv2_channels = 16;  // 16 x 4x4 = 256 binary features
    config.net.hidden_dim = 96;
    config.net.train.epochs = 10;
    config.poetbin.rinc = {.lut_inputs = 4, .levels = 2, .total_dts = 8};
    config.poetbin.output.epochs = 120;
    config.seed = 9;
    return run_pipeline(config);
  }();
  return result;
}

TEST(Pipeline, AllStagesBeatChance) {
  const PipelineResult& result = tiny_run();
  EXPECT_GT(result.a1, 0.7);
  EXPECT_GT(result.a2, 0.5);
  EXPECT_GT(result.a3, 0.5);
  EXPECT_GT(result.a4, 0.4);
}

TEST(Pipeline, FeatureBitsShapes) {
  const PipelineResult& result = tiny_run();
  EXPECT_EQ(result.train_bits.size(), 1000u);
  EXPECT_EQ(result.test_bits.size(), 300u);
  EXPECT_EQ(result.train_bits.n_features(), 256u);
  EXPECT_EQ(result.teacher_train_bits.cols(), 10u * 4u);
  EXPECT_EQ(result.teacher_test_bits.rows(), 300u);
}

TEST(Pipeline, FeaturesAreInformative) {
  // Binary features must not be degenerate: some columns vary.
  const PipelineResult& result = tiny_run();
  const auto means = testing::column_means(result.train_bits.features);
  std::size_t varying = 0;
  for (const double m : means) {
    if (m > 0.02 && m < 0.98) ++varying;
  }
  EXPECT_GT(varying, means.size() / 8);
}

TEST(Pipeline, FidelityAboveChance) {
  const PipelineResult& result = tiny_run();
  EXPECT_GT(result.fidelity_train, 0.7);
  EXPECT_GT(result.fidelity_test, 0.6);
}

TEST(Pipeline, StudentTracksTeacher) {
  // A4 should be within a reasonable band of A3 (the paper sees drops of
  // ~1% and occasionally gains); at tiny scale allow a wide band but
  // catastrophic collapse must fail.
  const PipelineResult& result = tiny_run();
  EXPECT_GT(result.a4, result.a3 - 0.25);
}

TEST(Pipeline, SkippingA2YieldsNan) {
  PipelineConfig config;
  config.data.family = SyntheticFamily::kDigits;
  config.data.seed = 6;
  config.n_train = 500;
  config.n_test = 150;
  config.net.conv1_channels = 6;
  config.net.conv2_channels = 12;
  config.net.hidden_dim = 48;
  config.net.train.epochs = 8;
  config.poetbin.rinc = {.lut_inputs = 3, .levels = 1, .total_dts = 3};
  config.poetbin.output.epochs = 20;
  config.train_a2_network = false;
  const PipelineResult result = run_pipeline(config);
  EXPECT_TRUE(std::isnan(result.a2));
  EXPECT_GT(result.a1, 0.15);
}

TEST(Pipeline, BinaryHiddenExportsHiddenBits) {
  PipelineConfig config;
  config.data.family = SyntheticFamily::kDigits;
  config.data.seed = 8;
  config.n_train = 400;
  config.n_test = 120;
  config.net.conv1_channels = 4;
  config.net.conv2_channels = 8;
  config.net.hidden_dim = 24;
  config.net.train.epochs = 3;
  config.train_a2_network = false;
  config.binary_hidden = true;
  config.poetbin.rinc = {.lut_inputs = 3, .levels = 1, .total_dts = 3};
  config.poetbin.output.epochs = 30;
  const PipelineResult result = run_pipeline(config);
  EXPECT_EQ(result.hidden_train_bits.rows(), 400u);
  EXPECT_EQ(result.hidden_train_bits.cols(), 24u);
  EXPECT_EQ(result.hidden_test_bits.rows(), 120u);
  // Without the flag the matrices stay empty.
  config.binary_hidden = false;
  const PipelineResult plain = run_pipeline(config);
  EXPECT_EQ(plain.hidden_train_bits.cols(), 0u);
}

TEST(Pipeline, PresetsMatchPaperTable1) {
  const PipelineConfig m1 = preset_m1();
  EXPECT_EQ(m1.poetbin.rinc.lut_inputs, 8u);
  EXPECT_EQ(m1.poetbin.rinc.total_dts, 32u);
  EXPECT_EQ(m1.poetbin.rinc.levels, 2u);
  EXPECT_EQ(m1.data.family, SyntheticFamily::kDigits);

  const PipelineConfig c1 = preset_c1();
  EXPECT_EQ(c1.poetbin.rinc.lut_inputs, 8u);
  EXPECT_EQ(c1.poetbin.rinc.total_dts, 40u);
  EXPECT_EQ(c1.data.family, SyntheticFamily::kTextures);

  const PipelineConfig s1 = preset_s1();
  EXPECT_EQ(s1.poetbin.rinc.lut_inputs, 6u);
  EXPECT_EQ(s1.poetbin.rinc.total_dts, 36u);
  EXPECT_EQ(s1.data.family, SyntheticFamily::kHouseNumbers);
  EXPECT_EQ(s1.poetbin.output.quant_bits, 8);

  // Scale parameter shrinks data sizes.
  const PipelineConfig small = preset_m1(0.25);
  EXPECT_EQ(small.n_train, 500u);
}

}  // namespace
}  // namespace poetbin
