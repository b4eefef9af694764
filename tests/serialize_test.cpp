#include "core/serialize.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "core/packed_model.h"
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

// `bytes` through the one model decoder.
IoResult<LoadedModel> decode(const std::string& bytes) {
  return read_model_bytes(bytes.data(), bytes.size());
}

std::string saved(const PoetBin& model) {
  std::stringstream out;
  save_model(model, out);
  return out.str();
}

std::string saved(const ConvModel& model) {
  std::stringstream out;
  save_conv_model(model, out);
  return out.str();
}

ConvModel conv_model(const LoadedModel& loaded) {
  return ConvModel{*loaded.conv, loaded.model};
}

TEST(Serialize, RoundTripPreservesPredictions) {
  const Fixture& fx = fixture();
  const IoResult<LoadedModel> loaded = decode(saved(fx.model));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->format, ModelFormat::kText);
  EXPECT_EQ(loaded->conv, nullptr);

  EXPECT_EQ(loaded->model.n_modules(), fx.model.n_modules());
  EXPECT_EQ(loaded->model.n_classes(), fx.model.n_classes());
  EXPECT_EQ(loaded->model.lut_count(), fx.model.lut_count());
  EXPECT_EQ(reference::predict_dataset(loaded->model, fx.data.features),
            reference::predict_dataset(fx.model, fx.data.features));
}

TEST(Serialize, RoundTripPreservesRincBits) {
  const Fixture& fx = fixture();
  const IoResult<LoadedModel> loaded = decode(saved(fx.model));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(reference::rinc_outputs(loaded->model, fx.data.features),
            reference::rinc_outputs(fx.model, fx.data.features));
}

TEST(Serialize, SavedTextIsStable) {
  const Fixture& fx = fixture();
  std::stringstream a;
  std::stringstream b;
  save_model(fx.model, a);
  save_model(fx.model, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("poetbin-model v2"), std::string::npos);
}

TEST(Serialize, DoubleRoundTripIsIdentity) {
  const Fixture& fx = fixture();
  const std::string first = saved(fx.model);
  const IoResult<LoadedModel> once = decode(first);
  ASSERT_TRUE(once.ok());
  EXPECT_EQ(first, saved(once->model));
}

TEST(Serialize, FileRoundTrip) {
  const Fixture& fx = fixture();
  const std::string path = ::testing::TempDir() + "/poetbin_model.txt";
  ASSERT_TRUE(write_model_file(fx.model, path).ok());
  const IoResult<LoadedModel> loaded = read_model_file_any(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->format, ModelFormat::kText);
  EXPECT_EQ(reference::predict_dataset(loaded->model, fx.data.features),
            reference::predict_dataset(fx.model, fx.data.features));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileIsTypedError) {
  const IoResult<LoadedModel> result =
      read_model_file_any("/nonexistent/path/model.txt");
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
  const IoResult<LoadedModel> result = decode("not-a-model v9\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
}

TEST(Serialize, FutureVersionIsVersionMismatch) {
  const IoResult<LoadedModel> result = decode("poetbin-model v3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
}

// v1 stored each MAT as its weights; this build reads only tables, so a v1
// file, dense or conv, asks to be re-exported.
TEST(Serialize, V1IsVersionMismatch) {
  const std::string body = saved(fixture().model).substr(
      std::string("poetbin-model v2").size());
  for (const std::string& text :
       {"poetbin-model v1" + body,
        std::string("poetbin-conv-model v1\nconv 1 2 2 1 1 1 0\n")}) {
    const IoResult<LoadedModel> result = decode(text);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
    EXPECT_NE(result.error().message.find("re-export"), std::string::npos)
        << result.error().message;
  }
}

TEST(Serialize, TruncatedBodyIsCorruptSection) {
  const Fixture& fx = fixture();
  const std::string text = saved(fx.model);
  const IoResult<LoadedModel> result = decode(text.substr(0, text.size() / 2));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
}

// Malformed bytes in *any* prefix must come back as a typed error, never an
// abort or a constructed-but-broken model. This sweeps every prefix length
// of a real saved model (a poor man's fuzzer with a deterministic corpus).
TEST(Serialize, EveryTruncationPointFailsCleanly) {
  const Fixture& fx = fixture();
  const std::string text = saved(fx.model);
  // Stop before the final token: a cut inside it just shortens one number,
  // which can legitimately still parse; every earlier cut drops >= 1 token.
  const std::size_t limit = text.rfind(' ');
  ASSERT_NE(limit, std::string::npos);
  for (std::size_t cut = 0; cut < limit; cut += 1 + text.size() / 97) {
    const IoResult<LoadedModel> result = decode(text.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

// Field-level corruption: out-of-range structural values are rejected with
// kCorruptSection instead of feeding POETBIN_CHECK aborts downstream.
TEST(Serialize, OutOfRangeFieldsAreCorruptSection) {
  const Fixture& fx = fixture();
  const std::string text = saved(fx.model);
  // Swaps the whitespace-delimited token right after the first `anchor` for
  // `to` (shape-agnostic: no assumption about the trained values).
  const auto corrupt_token_after = [&](const std::string& anchor,
                                       const std::string& to) {
    const std::size_t at = text.find(anchor);
    ASSERT_NE(at, std::string::npos) << anchor;
    const std::size_t tok = at + anchor.size();
    std::size_t end = text.find_first_of(" \n", tok);
    if (end == std::string::npos) end = text.size();
    const IoResult<LoadedModel> result =
        decode(text.substr(0, tok) + to + text.substr(end));
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

  const IoResult<LoadedModel> loaded = decode(saved(model));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(reference::predict_dataset(loaded->model, data.features),
            reference::predict_dataset(model, data.features));
  EXPECT_EQ(loaded->model.lut_count(), model.lut_count());
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
  const std::string text = saved(fx.model);
  EXPECT_NE(text.find("poetbin-conv-model v2"), std::string::npos);
  const IoResult<LoadedModel> result = decode(text);
  ASSERT_TRUE(result.ok()) << result.error().message;
  ASSERT_NE(result->conv, nullptr);
  const ConvModel loaded = conv_model(*result);
  EXPECT_EQ(loaded.conv.input_shape(), fx.model.conv.input_shape());
  EXPECT_EQ(loaded.conv.output_shape(), fx.model.conv.output_shape());
  EXPECT_EQ(loaded.n_features(), fx.model.n_features());
  EXPECT_EQ(reference::conv_eval_dataset(loaded.conv, fx.frames),
            reference::conv_eval_dataset(fx.model.conv, fx.frames));
  EXPECT_EQ(reference::predict_dataset(loaded, fx.frames),
            reference::predict_dataset(fx.model, fx.frames));
}

TEST(ConvSerialize, DoubleRoundTripIsIdentity) {
  const ConvFixture& fx = conv_fixture();
  const std::string first = saved(fx.model);
  const IoResult<LoadedModel> once = decode(first);
  ASSERT_TRUE(once.ok());
  EXPECT_EQ(first, saved(conv_model(*once)));
}

TEST(ConvSerialize, FileRoundTrip) {
  const ConvFixture& fx = conv_fixture();
  const std::string path = ::testing::TempDir() + "/poetbin_conv_model.txt";
  ASSERT_TRUE(write_conv_model_file(fx.model, path).ok());
  const IoResult<LoadedModel> loaded = read_model_file_any(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_NE(loaded->conv, nullptr);
  EXPECT_EQ(reference::predict_dataset(conv_model(*loaded), fx.frames),
            reference::predict_dataset(fx.model, fx.frames));
  std::remove(path.c_str());
}

TEST(ConvSerialize, MissingFileIsTypedError) {
  const IoResult<LoadedModel> result =
      read_model_file_any("/nonexistent/path/conv_model.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kFileNotFound);
}

TEST(ConvSerialize, MalformedHeaderIsVersionMismatch) {
  const IoResult<LoadedModel> result = decode("poetbin-conv-model v9\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
}

// Out-of-range conv geometry surfaces as a typed kCorruptSection, never a
// validate() abort (the loader replicates every from_parts contract).
TEST(ConvSerialize, OutOfRangeGeometryIsCorruptSection) {
  const ConvFixture& fx = conv_fixture();
  const std::string text = saved(fx.model);
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
    const IoResult<LoadedModel> result =
        decode(text.substr(0, tok) + to + text.substr(end));
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
  const std::string text = saved(fx.model);
  const std::size_t limit = text.rfind(' ');
  ASSERT_NE(limit, std::string::npos);
  for (std::size_t cut = 0; cut < limit; cut += 1 + text.size() / 97) {
    const IoResult<LoadedModel> result = decode(text.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

// The header line picks the grammar: a conv body under a dense header, or
// a dense body under a conv header, is a typed error, never a misparse.
TEST(ConvSerialize, HeaderLinePicksTheGrammar) {
  const std::string conv_text = saved(conv_fixture().model);
  const std::string dense_text = saved(fixture().model);
  const std::string conv_header = "poetbin-conv-model v2\n";
  ASSERT_EQ(conv_text.rfind(conv_header, 0), 0u);
  const IoResult<LoadedModel> dense_header_conv_body =
      decode("poetbin-model v2\n" + conv_text.substr(conv_header.size()));
  ASSERT_FALSE(dense_header_conv_body.ok());
  EXPECT_EQ(dense_header_conv_body.error().kind,
            ModelIoError::Kind::kCorruptSection);
  const IoResult<LoadedModel> conv_header_dense_body =
      decode(conv_header + dense_text);
  ASSERT_FALSE(conv_header_dense_body.ok());
  EXPECT_EQ(conv_header_dense_body.error().kind,
            ModelIoError::Kind::kCorruptSection);
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

// --- text mutation sweep --------------------------------------------------

// A leaf over `inputs` whose table bit a is bit a of `pattern`.
RincModule pattern_leaf(std::vector<std::size_t> inputs,
                        std::uint64_t pattern) {
  BitVector table(std::size_t{1} << inputs.size());
  for (std::size_t a = 0; a < table.size(); ++a) {
    table.set(a, ((pattern >> (a % 64)) & 1u) != 0);
  }
  return RincModule::make_leaf(Lut(std::move(inputs), std::move(table)));
}

// A level-1 module: two arity-3 leaves over features seeded by `m`, under a
// fanin-2 MAT.
RincModule small_module(std::size_t m, std::size_t n_features) {
  std::vector<RincModule> leaves;
  for (std::size_t l = 0; l < 2; ++l) {
    std::vector<std::size_t> inputs;
    for (std::size_t j = 0; j < 3; ++j) {
      inputs.push_back((m * 5 + l * 3 + j * 2) % n_features);
    }
    leaves.push_back(pattern_leaf(std::move(inputs), 0x96u + m * 13 + l));
  }
  return RincModule::make_internal(std::move(leaves),
                                   MatModule({0.75, -0.5 + 0.25 * m}));
}

// A two-class classifier over `n_features` with P = `p` level-1 modules
// per class and a 4-bit quantizer.
PoetBin small_classifier(std::size_t p, std::size_t n_features) {
  PoetBinConfig config;
  config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 2};
  config.n_classes = 2;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < 2 * p; ++m) {
    modules.push_back(small_module(m, n_features));
  }
  std::vector<SparseOutputNeuron> neurons(2);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < p; ++i) {
      neurons[c].input_modules.push_back(c * p + i);
    }
    neurons[c].weights.assign(p, 0.5f);
    neurons[c].bias = -0.25f;
    for (std::size_t a = 0; a < (std::size_t{1} << p); ++a) {
      neurons[c].codes.push_back(static_cast<std::uint32_t>((a * 7 + c) % 16));
    }
  }
  QuantizerParams quantizer;
  quantizer.bits = 4;
  config.output.quant_bits = 4;
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

// Replaces every whitespace-delimited token of `text`, in turn, with each
// hostile value and decodes the result. Each load must come back as a typed
// error, or as a model `agrees` finds consistent with its oracle.
template <typename Agrees>
void sweep_tokens(const std::string& text, const Agrees& agrees) {
  const char* const kValues[] = {"0",   "-1",  "17",
                                 "9",   "4294967297",
                                 "18446744073709551615",
                                 "x",   "nan", "1e300"};
  std::size_t loads = 0;
  std::size_t at = text.find_first_not_of(" \n");
  while (at != std::string::npos) {
    std::size_t end = text.find_first_of(" \n", at);
    if (end == std::string::npos) end = text.size();
    for (const char* value : kValues) {
      const std::string mutated = text.substr(0, at) + value + text.substr(end);
      const IoResult<LoadedModel> loaded = decode(mutated);
      if (!loaded.ok()) continue;
      ++loads;
      ASSERT_TRUE(agrees(*loaded))
          << "token at byte " << at << " -> " << value;
    }
    at = text.find_first_not_of(" \n", end);
  }
  EXPECT_GT(loads, 0u);  // some swaps (a weight, a code) stay well-formed
}

BitMatrix sample_rows(std::size_t width, std::uint64_t seed) {
  return testing::random_bits(24, width, seed);
}

TEST(TextMutation, EveryTokenSwapInADenseModelFailsOrPredictsLikeTheWalk) {
  const std::string text = saved(small_classifier(3, 12));
  ASSERT_TRUE(decode(text).ok());
  sweep_tokens(text, [](const LoadedModel& loaded) {
    if (loaded.conv != nullptr) return false;
    const BitMatrix rows = sample_rows(loaded.model.n_features(), 3);
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      const BitVector row = rows.row(r);
      if (loaded.model.predict(row) !=
          reference::predict_walk(loaded.model, row)) {
        return false;
      }
    }
    return true;
  });
}

TEST(TextMutation, EveryTokenSwapInAConvModelFailsOrPredictsLikeTheOracle) {
  RincConvConfig config;
  config.out_channels = 2;
  config.kernel = 3;
  config.stride = 1;
  config.padding = 1;
  std::vector<RincModule> channels;
  for (std::size_t c = 0; c < 2; ++c) channels.push_back(small_module(c, 9));
  ConvModel model;
  model.conv =
      RincConvLayer::from_parts({1, 4, 4}, config, std::move(channels));
  model.classifier = small_classifier(2, 2 * 4 * 4);
  const std::string text = saved(model);
  ASSERT_TRUE(decode(text).ok());
  sweep_tokens(text, [](const LoadedModel& loaded) {
    if (loaded.conv == nullptr) return false;
    const ConvModel round = conv_model(loaded);
    const BitMatrix frames = sample_rows(round.n_features(), 4);
    const std::vector<int> want = reference::predict_dataset(round, frames);
    for (std::size_t r = 0; r < frames.rows(); ++r) {
      if (round.predict(frames.row(r)) != want[r]) return false;
    }
    return true;
  });
}


// --- round-trip fidelity ----------------------------------------------------

// Adaboost alphas six digits cannot tell apart: the MAT table is 0011
// (feature 1 outweighs feature 0), and rounded to 0.123456 both it would
// tie into 0111.
const MatModule kCloseAlphas({0.1234561, 0.1234564});

// Two classes over P = 2 modules, each a MAT of kCloseAlphas over identity
// leaves: even modules read features 0 and 1, odd ones 2 and 3. Class 0's
// code is its two modules' combination and class 1's is 1, so the input
// 1010 (features 0 and 2 set) predicts class 1 under 0011 (codes 0 and 1)
// and class 0 under 0111 (codes 3 and 1).
PoetBin close_alphas_model() {
  BitVector id_table(2);
  id_table.set(1, true);
  PoetBinConfig config;
  config.rinc = {.lut_inputs = 2, .levels = 1, .total_dts = 2};
  config.n_classes = 2;
  config.output.quant_bits = 2;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < 4; ++m) {
    modules.push_back(RincModule::make_internal(
        {RincModule::make_leaf(Lut({2 * (m % 2)}, id_table)),
         RincModule::make_leaf(Lut({2 * (m % 2) + 1}, id_table))},
        kCloseAlphas));
  }
  std::vector<SparseOutputNeuron> neurons(2);
  for (std::size_t c = 0; c < 2; ++c) {
    neurons[c].input_modules = {2 * c, 2 * c + 1};
    neurons[c].weights.assign(2, 0.5f);
  }
  neurons[0].codes = {0, 1, 2, 3};
  neurons[1].codes = {1, 1, 1, 1};
  QuantizerParams quantizer;
  quantizer.bits = 2;
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

// Every leaf and MAT table of `b`'s modules equals `a`'s, pre-order.
void expect_same_tables(const RincModule& a, const RincModule& b) {
  ASSERT_EQ(a.is_leaf(), b.is_leaf());
  if (a.is_leaf()) {
    EXPECT_EQ(a.leaf_lut(), b.leaf_lut());
    return;
  }
  EXPECT_EQ(a.mat_lut().table().to_string(), b.mat_lut().table().to_string());
  ASSERT_EQ(a.children().size(), b.children().size());
  for (std::size_t c = 0; c < a.children().size(); ++c) {
    expect_same_tables(a.children()[c], b.children()[c]);
  }
}

TEST(RoundTripFidelity, CloseMatWeightsKeepTheirTableInBothFormats) {
  const PoetBin model = close_alphas_model();
  ASSERT_EQ(model.modules()[0].mat_lut().table().to_string(), "0011");
  BitMatrix rows(16, 4);  // every input
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t f = 0; f < 4; ++f) rows.set(r, f, ((r >> f) & 1u) != 0);
  }
  const std::vector<int> want = reference::predict_dataset(model, rows);

  const std::string packed_path = ::testing::TempDir() + "/close_alphas.pbm";
  ASSERT_TRUE(write_packed_model_file(model, packed_path).ok());
  std::vector<IoResult<LoadedModel>> loads;
  loads.push_back(decode(saved(model)));
  loads.push_back(read_model_file_any(packed_path));
  std::remove(packed_path.c_str());
  for (const IoResult<LoadedModel>& loaded : loads) {
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    const char* format = model_format_name(loaded->format);
    ASSERT_EQ(loaded->model.modules().size(), model.modules().size());
    for (std::size_t m = 0; m < model.modules().size(); ++m) {
      SCOPED_TRACE(std::string(format) + " module " + std::to_string(m));
      expect_same_tables(model.modules()[m], loaded->model.modules()[m]);
    }
    EXPECT_EQ(reference::predict_dataset(loaded->model, rows), want)
        << format;
  }
}

TEST(RoundTripFidelity, TextFloatsReadBackBitExactly) {
  PoetBin model = close_alphas_model();
  QuantizerParams quantizer;
  quantizer.bits = 2;
  quantizer.min_value = -0.333333343f;
  quantizer.max_value = 0.123456784f;
  std::vector<SparseOutputNeuron> neurons = model.output_neurons();
  neurons[0].bias = 0.333333343f;
  neurons[0].weights = {0.123456784f, -1.0e-7f};
  neurons[1].bias = 3.40282347e38f;
  neurons[1].weights = {1.17549435e-38f, 0.1f};
  PoetBinConfig config;
  config.rinc = {.lut_inputs = 2, .levels = 1, .total_dts = 2};
  config.n_classes = 2;
  config.output.quant_bits = 2;
  model = PoetBin::from_parts(config, model.modules(), neurons, quantizer);

  const IoResult<LoadedModel> loaded = decode(saved(model));
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const auto bits = [](float value) {
    return std::bit_cast<std::uint32_t>(value);
  };
  const QuantizerParams& q = loaded->model.quantizer();
  EXPECT_EQ(bits(q.min_value), bits(quantizer.min_value));
  EXPECT_EQ(bits(q.max_value), bits(quantizer.max_value));
  for (std::size_t c = 0; c < neurons.size(); ++c) {
    const SparseOutputNeuron& got = loaded->model.output_neurons()[c];
    EXPECT_EQ(bits(got.bias), bits(neurons[c].bias)) << "class " << c;
    ASSERT_EQ(got.weights.size(), neurons[c].weights.size());
    for (std::size_t i = 0; i < got.weights.size(); ++i) {
      EXPECT_EQ(bits(got.weights[i]), bits(neurons[c].weights[i]))
          << "class " << c << " weight " << i;
    }
  }
}

}  // namespace
}  // namespace poetbin
