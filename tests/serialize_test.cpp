#include "core/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

// Trains a small PoET-BiN model once for all round-trip tests.
struct Fixture {
  BinaryDataset data;
  PoetBin model;

  Fixture() {
    data = testing::prototype_dataset(400, 48, 77);
    const std::size_t p = 4;
    BitMatrix intermediate(data.size(), data.n_classes * p);
    Rng rng(3);
    for (std::size_t i = 0; i < data.size(); ++i) {
      for (std::size_t j = 0; j < intermediate.cols(); ++j) {
        const bool is_class = data.labels[i] == static_cast<int>(j / p);
        intermediate.set(i, j, is_class != rng.next_bool(0.05));
      }
    }
    PoetBinConfig config;
    config.rinc = {.lut_inputs = p, .levels = 2, .total_dts = 8};
    config.n_classes = data.n_classes;
    config.output.epochs = 60;
    model = PoetBin::train(data.features, intermediate, data.labels, config);
  }
};

const Fixture& fixture() {
  static const Fixture fx;
  return fx;
}

TEST(Serialize, RoundTripPreservesPredictions) {
  const Fixture& fx = fixture();
  std::stringstream stream;
  save_model(fx.model, stream);
  const IoResult<PoetBin> loaded = read_model(stream);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->n_modules(), fx.model.n_modules());
  EXPECT_EQ(loaded->n_classes(), fx.model.n_classes());
  EXPECT_EQ(loaded->lut_count(), fx.model.lut_count());
  EXPECT_EQ(reference::predict_dataset(*loaded, fx.data.features),
            reference::predict_dataset(fx.model, fx.data.features));
}

TEST(Serialize, RoundTripPreservesRincBits) {
  const Fixture& fx = fixture();
  std::stringstream stream;
  save_model(fx.model, stream);
  const IoResult<PoetBin> loaded = read_model(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(reference::rinc_outputs(*loaded, fx.data.features),
            reference::rinc_outputs(fx.model, fx.data.features));
}

TEST(Serialize, SavedTextIsStable) {
  const Fixture& fx = fixture();
  std::stringstream a;
  std::stringstream b;
  save_model(fx.model, a);
  save_model(fx.model, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("poetbin-model v1"), std::string::npos);
}

TEST(Serialize, DoubleRoundTripIsIdentity) {
  const Fixture& fx = fixture();
  std::stringstream first;
  save_model(fx.model, first);
  const IoResult<PoetBin> once = read_model(first);
  ASSERT_TRUE(once.ok());
  std::stringstream second;
  save_model(*once, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Serialize, FileRoundTrip) {
  const Fixture& fx = fixture();
  const std::string path = ::testing::TempDir() + "/poetbin_model.txt";
  ASSERT_TRUE(write_model_file(fx.model, path).ok());
  const IoResult<PoetBin> loaded = read_model_file(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(reference::predict_dataset(*loaded, fx.data.features),
            reference::predict_dataset(fx.model, fx.data.features));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileIsTypedError) {
  const IoResult<PoetBin> result =
      read_model_file("/nonexistent/path/model.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kFileNotFound);
  EXPECT_NE(result.error().message.find("/nonexistent/path/model.txt"),
            std::string::npos);
}

TEST(Serialize, UnwritablePathIsTypedError) {
  const Fixture& fx = fixture();
  const IoStatus status =
      write_model_file(fx.model, "/nonexistent/dir/model.txt");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().kind, ModelIoError::Kind::kWriteFailed);
}

TEST(Serialize, MalformedHeaderIsVersionMismatch) {
  std::stringstream stream("not-a-model v9\n");
  const IoResult<PoetBin> result = read_model(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
}

TEST(Serialize, FutureVersionIsVersionMismatch) {
  std::stringstream stream("poetbin-model v2\n");
  const IoResult<PoetBin> result = read_model(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
}

TEST(Serialize, TruncatedBodyIsCorruptSection) {
  const Fixture& fx = fixture();
  std::stringstream stream;
  save_model(fx.model, stream);
  const std::string text = stream.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  const IoResult<PoetBin> result = read_model(truncated);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
}

// Malformed bytes in *any* prefix must come back as a typed error, never an
// abort or a constructed-but-broken model. This sweeps every prefix length
// of a real saved model (a poor man's fuzzer with a deterministic corpus).
TEST(Serialize, EveryTruncationPointFailsCleanly) {
  const Fixture& fx = fixture();
  std::stringstream stream;
  save_model(fx.model, stream);
  const std::string text = stream.str();
  // Stop before the final token: a cut inside it just shortens one number,
  // which can legitimately still parse; every earlier cut drops >= 1 token.
  const std::size_t limit = text.rfind(' ');
  ASSERT_NE(limit, std::string::npos);
  for (std::size_t cut = 0; cut < limit; cut += 1 + text.size() / 97) {
    std::stringstream truncated(text.substr(0, cut));
    const IoResult<PoetBin> result = read_model(truncated);
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

// Field-level corruption: out-of-range structural values are rejected with
// kCorruptSection instead of feeding POETBIN_CHECK aborts downstream.
TEST(Serialize, OutOfRangeFieldsAreCorruptSection) {
  const Fixture& fx = fixture();
  std::stringstream stream;
  save_model(fx.model, stream);
  const std::string text = stream.str();
  // Swaps the whitespace-delimited token right after the first `anchor` for
  // `to` (shape-agnostic: no assumption about the trained values).
  const auto corrupt_token_after = [&](const std::string& anchor,
                                       const std::string& to) {
    const std::size_t at = text.find(anchor);
    ASSERT_NE(at, std::string::npos) << anchor;
    const std::size_t tok = at + anchor.size();
    std::size_t end = text.find_first_of(" \n", tok);
    if (end == std::string::npos) end = text.size();
    std::stringstream in(text.substr(0, tok) + to + text.substr(end));
    const IoResult<PoetBin> result = read_model(in);
    ASSERT_FALSE(result.ok()) << anchor << " -> " << to;
    EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
  };
  corrupt_token_after("config ", "99");  // P beyond the 16-input cap
  corrupt_token_after("leaf ", "0");     // LUT with no inputs
  corrupt_token_after("module ", "1");   // first module header out of order
}

// Round-trip across several (P, L, DTs) shapes — the format must not bake
// in any one architecture.
struct SerShape {
  std::size_t p, levels, dts;
};

class SerializeShapeSweep : public ::testing::TestWithParam<SerShape> {};

TEST_P(SerializeShapeSweep, RoundTripsEveryShape) {
  const auto [p, levels, dts] = GetParam();
  const BinaryDataset data = testing::prototype_dataset(250, 32, 40 + p);
  BitMatrix intermediate(data.size(), data.n_classes * p);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      intermediate.set(i, j, data.labels[i] == static_cast<int>(j / p));
    }
  }
  PoetBinConfig config;
  config.rinc = {.lut_inputs = p, .levels = levels, .total_dts = dts};
  config.n_classes = data.n_classes;
  config.output.epochs = 15;
  const PoetBin model =
      PoetBin::train(data.features, intermediate, data.labels, config);

  std::stringstream stream;
  save_model(model, stream);
  const IoResult<PoetBin> loaded = read_model(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(reference::predict_dataset(*loaded, data.features),
            reference::predict_dataset(model, data.features));
  EXPECT_EQ(loaded->lut_count(), model.lut_count());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SerializeShapeSweep,
    ::testing::Values(SerShape{2, 0, 1}, SerShape{3, 1, 2}, SerShape{3, 1, 3},
                      SerShape{4, 2, 7}, SerShape{5, 2, 25}),
    [](const auto& info) {
      return "P" + std::to_string(info.param.p) + "_L" +
             std::to_string(info.param.levels) + "_D" +
             std::to_string(info.param.dts);
    });

// --- convolutional models: conv front end + embedded dense classifier -----

// Trains a small ConvModel once: a 2-channel RINC conv over 1x6x6 frames
// whose flattened output feeds a 4-class classifier.
struct ConvFixture {
  BitMatrix frames;
  ConvModel model;

  ConvFixture() {
    const BinShape3 in_shape{1, 6, 6};
    frames = testing::random_bits(200, in_shape.flat(), 55);
    RincConvConfig config;
    config.out_channels = 2;
    config.kernel = 3;
    config.stride = 1;
    config.padding = 1;
    config.rinc = {.lut_inputs = 4, .levels = 1, .total_dts = 4};
    const BitMatrix targets = testing::random_bits(200, 2 * 6 * 6, 56);
    model.conv = RincConvLayer::train(frames, in_shape, targets, config);

    const BitMatrix conv_out = reference::conv_eval_dataset(model.conv, frames);
    std::vector<int> labels(frames.rows());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<int>(i % 4);
    }
    const std::size_t p = 3;
    BitMatrix intermediate(conv_out.rows(), 4 * p);
    for (std::size_t i = 0; i < intermediate.rows(); ++i) {
      for (std::size_t j = 0; j < intermediate.cols(); ++j) {
        intermediate.set(i, j, labels[i] == static_cast<int>(j / p));
      }
    }
    PoetBinConfig classifier_config;
    classifier_config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 3};
    classifier_config.n_classes = 4;
    classifier_config.output.epochs = 10;
    model.classifier =
        PoetBin::train(conv_out, intermediate, labels, classifier_config);
  }
};

const ConvFixture& conv_fixture() {
  static const ConvFixture fx;
  return fx;
}

TEST(ConvSerialize, RoundTripPreservesPredictions) {
  const ConvFixture& fx = conv_fixture();
  std::stringstream stream;
  save_conv_model(fx.model, stream);
  EXPECT_NE(stream.str().find("poetbin-conv-model v1"), std::string::npos);
  const IoResult<ConvModel> loaded = read_conv_model(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->conv.input_shape(), fx.model.conv.input_shape());
  EXPECT_EQ(loaded->conv.output_shape(), fx.model.conv.output_shape());
  EXPECT_EQ(loaded->n_features(), fx.model.n_features());
  EXPECT_EQ(reference::conv_eval_dataset(loaded->conv, fx.frames),
            reference::conv_eval_dataset(fx.model.conv, fx.frames));
  EXPECT_EQ(reference::predict_dataset(*loaded, fx.frames),
            reference::predict_dataset(fx.model, fx.frames));
}

TEST(ConvSerialize, DoubleRoundTripIsIdentity) {
  const ConvFixture& fx = conv_fixture();
  std::stringstream first;
  save_conv_model(fx.model, first);
  const IoResult<ConvModel> once = read_conv_model(first);
  ASSERT_TRUE(once.ok());
  std::stringstream second;
  save_conv_model(*once, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(ConvSerialize, FileRoundTrip) {
  const ConvFixture& fx = conv_fixture();
  const std::string path = ::testing::TempDir() + "/poetbin_conv_model.txt";
  ASSERT_TRUE(write_conv_model_file(fx.model, path).ok());
  const IoResult<ConvModel> loaded = read_conv_model_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(reference::predict_dataset(*loaded, fx.frames),
            reference::predict_dataset(fx.model, fx.frames));
  std::remove(path.c_str());
}

TEST(ConvSerialize, MissingFileIsTypedError) {
  const IoResult<ConvModel> result =
      read_conv_model_file("/nonexistent/path/conv_model.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kFileNotFound);
}

TEST(ConvSerialize, MalformedHeaderIsVersionMismatch) {
  std::stringstream stream("poetbin-conv-model v9\n");
  const IoResult<ConvModel> result = read_conv_model(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
}

// Out-of-range conv geometry surfaces as a typed kCorruptSection, never a
// validate() abort (the loader replicates every from_parts contract).
TEST(ConvSerialize, OutOfRangeGeometryIsCorruptSection) {
  const ConvFixture& fx = conv_fixture();
  std::stringstream stream;
  save_conv_model(fx.model, stream);
  const std::string text = stream.str();
  // The conv record is "conv <in_c> <in_h> <in_w> <out_c> <k> <s> <p>";
  // swap single tokens for structurally impossible values.
  const auto corrupt_conv_token = [&](std::size_t token_index,
                                      const std::string& to) {
    const std::size_t at = text.find("conv ");
    ASSERT_NE(at, std::string::npos);
    std::size_t tok = at + 5;
    for (std::size_t skip = 0; skip < token_index; ++skip) {
      tok = text.find(' ', tok) + 1;
    }
    std::size_t end = text.find_first_of(" \n", tok);
    std::stringstream in(text.substr(0, tok) + to + text.substr(end));
    const IoResult<ConvModel> result = read_conv_model(in);
    ASSERT_FALSE(result.ok()) << "token " << token_index << " -> " << to;
    EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
  };
  corrupt_conv_token(0, "0");       // zero input channels
  corrupt_conv_token(4, "0");       // zero kernel
  corrupt_conv_token(4, "999999");  // kernel beyond the dimension cap
  corrupt_conv_token(5, "0");       // zero stride
  corrupt_conv_token(6, "7");       // padding >= kernel
}

TEST(ConvSerialize, EveryTruncationPointFailsCleanly) {
  const ConvFixture& fx = conv_fixture();
  std::stringstream stream;
  save_conv_model(fx.model, stream);
  const std::string text = stream.str();
  const std::size_t limit = text.rfind(' ');
  ASSERT_NE(limit, std::string::npos);
  for (std::size_t cut = 0; cut < limit; cut += 1 + text.size() / 97) {
    std::stringstream truncated(text.substr(0, cut));
    const IoResult<ConvModel> result = read_conv_model(truncated);
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

// The dense parser must not quietly accept a conv file (and vice versa).
TEST(ConvSerialize, DenseParserRejectsConvHeader) {
  const ConvFixture& fx = conv_fixture();
  std::stringstream stream;
  save_conv_model(fx.model, stream);
  const IoResult<PoetBin> result = read_model(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
}

TEST(RincFromParts, RejectsMixedLevels) {
  BitVector id_table(2);
  id_table.set(1, true);
  RincModule leaf = RincModule::make_leaf(Lut({0}, id_table));
  RincModule inner = RincModule::make_internal(
      {RincModule::make_leaf(Lut({0}, id_table)),
       RincModule::make_leaf(Lut({1}, id_table))},
      MatModule({1.0, 1.0}));
  std::vector<RincModule> mixed;
  mixed.push_back(std::move(leaf));
  mixed.push_back(std::move(inner));
  EXPECT_DEATH(RincModule::make_internal(std::move(mixed), MatModule({1.0, 1.0})),
               "");
}

TEST(RincFromParts, HandBuiltModuleEvaluates) {
  // Majority of three features, built by hand: 3 identity leaves + MAT.
  BitVector id_table(2);
  id_table.set(1, true);
  std::vector<RincModule> leaves;
  for (std::size_t f = 0; f < 3; ++f) {
    leaves.push_back(RincModule::make_leaf(Lut({f}, id_table)));
  }
  const RincModule majority = RincModule::make_internal(
      std::move(leaves), MatModule({1.0, 1.0, 1.0}));

  BitVector example(3);
  EXPECT_FALSE(reference::eval_module(majority, example));
  example.set(0, true);
  EXPECT_FALSE(reference::eval_module(majority, example));
  example.set(2, true);
  EXPECT_TRUE(reference::eval_module(majority, example));
}

}  // namespace
}  // namespace poetbin
