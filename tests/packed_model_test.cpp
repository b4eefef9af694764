#include "core/packed_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/batch_eval.h"
#include "core/model_parts.h"
#include "core/rinc.h"
#include "dt/lut.h"
#include "reference/scalar_reference.h"
#include "serve/runtime.h"
#include "test_util.h"

namespace poetbin {
namespace {

// Trains a small PoET-BiN model once for all packed-format tests.
struct Fixture {
  BinaryDataset data;
  PoetBin model;

  Fixture() {
    data = testing::prototype_dataset(400, 48, 91);
    const std::size_t p = 4;
    BitMatrix intermediate(data.size(), data.n_classes * p);
    Rng rng(5);
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
  return *[] {
    static const Fixture* fx = new Fixture;
    return fx;
  }();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Writes the fixture model once; every read-side test loads this file.
const std::string& packed_fixture_path() {
  static const std::string path = [] {
    const std::string p = temp_path("poetbin_fixture.pbm");
    const IoStatus status = write_packed_model_file(fixture().model, p);
    POETBIN_CHECK_MSG(status.ok(), "fixture pack failed");
    return p;
  }();
  return path;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// Re-checksums a mutated file with the oracle CRC, so structural
// corruptions reach the structural validators instead of stopping at
// kChecksumMismatch.
void fix_crc(std::vector<std::uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), 64u);
  const std::uint32_t crc =
      reference::crc32_bytewise(bytes.data() + 64, bytes.size() - 64);
  std::memcpy(bytes.data() + 20, &crc, sizeof(crc));
}

// Reads a u64 field of section-table entry `index` (0-based, id order).
std::uint64_t section_field(const std::vector<std::uint8_t>& bytes,
                            std::size_t index, std::size_t field_offset) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + 64 + index * 24 + field_offset,
              sizeof(value));
  return value;
}

// `bytes` through the one model decoder.
IoResult<LoadedModel> decode(const std::vector<std::uint8_t>& bytes,
                             PackedVerify verify = PackedVerify::kFull) {
  return read_model_bytes(bytes.data(), bytes.size(), verify);
}

// Applies `mutate` to a copy of the packed fixture and returns the load
// result.
using Bytes = std::vector<std::uint8_t>;

IoResult<LoadedModel> load_mutated(
    const std::function<void(Bytes&)>& mutate,
    PackedVerify verify = PackedVerify::kFull) {
  std::vector<std::uint8_t> bytes = read_bytes(packed_fixture_path());
  mutate(bytes);
  return decode(bytes, verify);
}

// The packed fixture, loaded at `verify` depth.
IoResult<LoadedModel> load_fixture(PackedVerify verify = PackedVerify::kFull) {
  return read_model_file_any(packed_fixture_path(), verify);
}

std::string saved(const PoetBin& model) {
  std::stringstream out;
  save_model(model, out);
  return out.str();
}

TEST(PackedModel, RoundTripPreservesPredictions) {
  const Fixture& fx = fixture();
  const IoResult<LoadedModel> loaded = load_fixture();
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->format, ModelFormat::kPacked);
  EXPECT_EQ(loaded->model.n_modules(), fx.model.n_modules());
  EXPECT_EQ(loaded->model.n_classes(), fx.model.n_classes());
  EXPECT_EQ(loaded->model.lut_count(), fx.model.lut_count());
  EXPECT_EQ(loaded->model.n_features(), fx.model.n_features());
  EXPECT_EQ(reference::predict_dataset(loaded->model, fx.data.features),
            reference::predict_dataset(fx.model, fx.data.features));
  EXPECT_EQ(reference::rinc_outputs(loaded->model, fx.data.features),
            reference::rinc_outputs(fx.model, fx.data.features));
}

// The binary format stores exact float/double bit patterns, so a model that
// went text -> packed -> text must reproduce the text byte for byte.
TEST(PackedModel, TextPackedTextIsByteIdentical) {
  const IoResult<LoadedModel> unpacked = load_fixture();
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(saved(fixture().model), saved(unpacked->model));
}

// Packing the unpacked model again must reproduce the packed bytes too —
// the writer is deterministic and nothing is lost in the round trip.
TEST(PackedModel, PackedRoundTripIsByteIdentical) {
  const IoResult<LoadedModel> unpacked = load_fixture();
  ASSERT_TRUE(unpacked.ok());
  const std::string again = temp_path("poetbin_repacked.pbm");
  ASSERT_TRUE(write_packed_model_file(unpacked->model, again).ok());
  EXPECT_EQ(read_bytes(packed_fixture_path()), read_bytes(again));
  std::remove(again.c_str());
}

// The acceptance bar: packed-loaded predictions are bit-identical to the
// trained model on every available backend, every eval path, and several
// thread counts.
TEST(PackedModel, BitIdenticalAcrossBackendsAndThreads) {
  const Fixture& fx = fixture();
  const IoResult<LoadedModel> loaded = load_fixture();
  ASSERT_TRUE(loaded.ok());
  const PoetBin& model = loaded->model;
  const std::vector<int> want =
      reference::predict_dataset(fx.model, fx.data.features);

  testing::BackendGuard guard;
  for (const WordBackend backend : available_word_backends()) {
    set_word_backend(backend);
    EXPECT_EQ(reference::predict_dataset(model, fx.data.features), want)
        << word_backend_name(backend);
    for (const std::size_t threads : {1u, 2u, 5u}) {
      const BatchEngine engine(threads);
      EXPECT_EQ(model.predict_dataset_batched(fx.data.features, engine),
                want)
          << word_backend_name(backend) << " x" << threads;
      EXPECT_EQ(engine.rinc_outputs(model, fx.data.features),
                reference::rinc_outputs(fx.model, fx.data.features))
          << word_backend_name(backend) << " x" << threads;
    }
  }
}

// A loaded model owns its tables outright: a copy stays valid after the
// original (and the file buffer it was parsed from) is gone.
TEST(PackedModel, CopySurvivesOriginalDestruction) {
  const Fixture& fx = fixture();
  auto original = std::make_unique<PoetBin>();
  {
    IoResult<LoadedModel> loaded = load_fixture();
    ASSERT_TRUE(loaded.ok());
    *original = std::move(loaded->model);
  }
  PoetBin copy = *original;
  original.reset();
  EXPECT_EQ(reference::predict_dataset(copy, fx.data.features),
            reference::predict_dataset(fx.model, fx.data.features));
}

// Retraining a packed-loaded model rebuilds its code planes from the new
// codes and stays bit-identical to retraining the same model loaded from
// text.
TEST(PackedModel, RetrainOutputLayerMatchesTextLoadedRetrain) {
  const Fixture& fx = fixture();
  IoResult<LoadedModel> packed = load_fixture();
  ASSERT_TRUE(packed.ok());
  const std::string text_bytes = saved(fx.model);
  IoResult<LoadedModel> text =
      read_model_bytes(text_bytes.data(), text_bytes.size());
  ASSERT_TRUE(text.ok());

  const BitMatrix rinc_bits =
      reference::rinc_outputs(fx.model, fx.data.features);
  packed->model.retrain_output_layer(rinc_bits, fx.data.labels);
  text->model.retrain_output_layer(rinc_bits, fx.data.labels);
  EXPECT_EQ(reference::predict_dataset(packed->model, fx.data.features),
            reference::predict_dataset(text->model, fx.data.features));
}

TEST(PackedModel, SniffsFormats) {
  const Fixture& fx = fixture();
  const std::string text_path = temp_path("poetbin_fixture.txt");
  ASSERT_TRUE(write_model_file(fx.model, text_path).ok());

  const IoResult<LoadedModel> packed =
      read_model_file_any(packed_fixture_path());
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->format, ModelFormat::kPacked);
  const IoResult<LoadedModel> text = read_model_file_any(text_path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->format, ModelFormat::kText);
  EXPECT_EQ(reference::predict_dataset(packed->model, fx.data.features),
            reference::predict_dataset(text->model, fx.data.features));
  std::remove(text_path.c_str());

  EXPECT_STREQ(model_format_name(ModelFormat::kText), "text");
  EXPECT_STREQ(model_format_name(ModelFormat::kPacked), "packed");
}

TEST(PackedModel, MissingFileIsTypedError) {
  const IoResult<LoadedModel> result =
      read_model_file_any("/nonexistent/model.pbm");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kFileNotFound);
}

TEST(PackedModel, BadMagicIsVersionMismatch) {
  const IoResult<LoadedModel> result =
      load_mutated([](Bytes& bytes) { bytes[0] = 'X'; });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
}

TEST(PackedModel, FutureVersionIsVersionMismatch) {
  const IoResult<LoadedModel> result =
      load_mutated([](Bytes& bytes) { bytes[8] = 9; });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
}

// Versions 1 and 2 carried the splat and code-plane sections, and version
// 4 the MAT weights, that this build no longer reads; they are a typed
// mismatch, never a misparse.
TEST(PackedModel, OlderVersionsAreVersionMismatch) {
  for (const std::uint8_t version : {1, 2, 4}) {
    const IoResult<LoadedModel> result =
        load_mutated([version](Bytes& bytes) {
          bytes[8] = version;
          fix_crc(bytes);
        });
    ASSERT_FALSE(result.ok()) << "version " << int{version};
    EXPECT_EQ(result.error().kind, ModelIoError::Kind::kVersionMismatch);
  }
}

TEST(PackedModel, FlippedPayloadByteIsChecksumMismatch) {
  const IoResult<LoadedModel> result =
      load_mutated([](Bytes& bytes) {
        bytes[bytes.size() / 2] ^= 0x40;  // no CRC fix-up
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kChecksumMismatch);
}

// The serving fast path (PackedVerify::kTrustChecksum, what Runtime::load
// runs) must load bit-identical to the full-verification depth on a good
// file.
TEST(PackedModel, TrustChecksumLoadsIdenticallyToFullVerify) {
  const Fixture& fx = fixture();
  const IoResult<LoadedModel> trusting =
      load_fixture(PackedVerify::kTrustChecksum);
  ASSERT_TRUE(trusting.ok()) << trusting.error().message;
  EXPECT_EQ(reference::predict_dataset(trusting->model, fx.data.features),
            reference::predict_dataset(fx.model, fx.data.features));
  EXPECT_EQ(saved(fx.model), saved(trusting->model));
}

// The documented trade of the trusting depth: a wrong checksum FIELD (the
// payload itself intact) fails kFull and sails through kTrustChecksum with
// identical predictions — the fast path never runs the CRC pass.
TEST(PackedModel, TrustChecksumSkipsTheCrcPass) {
  const auto corrupt_crc_field = [](std::vector<std::uint8_t>& bytes) {
    bytes[20] ^= 0xFF;  // stored CRC32, not covered by itself
  };
  const IoResult<LoadedModel> full = load_mutated(corrupt_crc_field);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().kind, ModelIoError::Kind::kChecksumMismatch);

  const Fixture& fx = fixture();
  const IoResult<LoadedModel> trusting =
      load_mutated(corrupt_crc_field, PackedVerify::kTrustChecksum);
  ASSERT_TRUE(trusting.ok()) << trusting.error().message;
  EXPECT_EQ(reference::predict_dataset(trusting->model, fx.data.features),
            reference::predict_dataset(fx.model, fx.data.features));
}

// Trusting the checksum does not mean trusting the structure: truncation
// and header corruption still fail with the same typed errors.
TEST(PackedModel, TrustChecksumStillRejectsStructuralDamage) {
  const IoResult<LoadedModel> truncated = load_mutated(
      [](Bytes& bytes) { bytes.resize(bytes.size() / 2); },
      PackedVerify::kTrustChecksum);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().kind, ModelIoError::Kind::kCorruptSection);

  const IoResult<LoadedModel> bad_magic = load_mutated(
      [](Bytes& bytes) { bytes[0] = 'X'; },
      PackedVerify::kTrustChecksum);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.error().kind, ModelIoError::Kind::kVersionMismatch);
}

// Writers publish via temp-file + rename; a push over an existing path must
// leave no temp droppings and the previous bytes must never coexist with
// the new ones (the file is either absent-then-complete or old-then-new).
TEST(PackedModel, WriteIsAtomicPublishWithNoTempLeftovers) {
  const Fixture& fx = fixture();
  const std::string path = temp_path("atomic_publish.pbm");
  ASSERT_TRUE(write_packed_model_file(fx.model, path).ok());
  ASSERT_TRUE(write_packed_model_file(fx.model, path).ok());  // overwrite
  EXPECT_EQ(read_bytes(path), read_bytes(packed_fixture_path()));
  // No "<path>.tmp.<pid>" sibling left behind.
  const std::string temp_sibling =
      path + ".tmp." + std::to_string(::getpid());
  std::ifstream leftover(temp_sibling);
  EXPECT_FALSE(leftover.good());
  std::remove(path.c_str());
}

TEST(PackedModel, TruncatedFileIsCorruptSection) {
  const IoResult<LoadedModel> result =
      load_mutated([](Bytes& bytes) { bytes.resize(bytes.size() / 2); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
}

TEST(PackedModel, HeaderSizedStubIsCorruptSection) {
  const IoResult<LoadedModel> result =
      load_mutated([](Bytes& bytes) { bytes.resize(40); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
}

TEST(PackedModel, MisalignedSectionOffsetIsCorruptSection) {
  const IoResult<LoadedModel> result =
      load_mutated([](Bytes& bytes) {
        std::uint64_t offset = section_field(bytes, 0, 8) + 8;
        std::memcpy(bytes.data() + 64 + 8, &offset, sizeof(offset));
        fix_crc(bytes);
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
}

TEST(PackedModel, SectionLengthMismatchIsCorruptSection) {
  const IoResult<LoadedModel> result =
      load_mutated([](Bytes& bytes) {
        std::uint64_t length = section_field(bytes, 0, 16) + 8;
        std::memcpy(bytes.data() + 64 + 16, &length, sizeof(length));
        fix_crc(bytes);
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
}

TEST(PackedModel, SectionBeyondFileIsCorruptSection) {
  const IoResult<LoadedModel> result =
      load_mutated([](Bytes& bytes) {
        const std::uint64_t offset = bytes.size() * 2;
        std::memcpy(bytes.data() + 64 + 8, &offset, sizeof(offset));
        fix_crc(bytes);
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
}

TEST(PackedModel, HeaderFileSizeMismatchIsCorruptSection) {
  const IoResult<LoadedModel> result =
      load_mutated([](Bytes& bytes) {
        const std::uint64_t size = bytes.size() + 64;
        std::memcpy(bytes.data() + 24, &size, sizeof(size));
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
}

TEST(PackedModel, OutOfRangeWiringIsCorruptSection) {
  const IoResult<LoadedModel> result =
      load_mutated([](Bytes& bytes) {
        const std::uint64_t wiring_offset = section_field(bytes, 4, 8);
        const std::uint64_t bogus = 1u << 20;
        std::memcpy(bytes.data() + wiring_offset, &bogus, sizeof(bogus));
        fix_crc(bytes);
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
}

// Coarse truncation sweep: every prefix must come back as a typed error —
// never an abort, never out-of-bounds reads (ASan-clean).
TEST(PackedModel, EveryTruncationPointFailsCleanly) {
  const std::vector<std::uint8_t> bytes = read_bytes(packed_fixture_path());
  for (std::size_t cut = 0; cut < bytes.size();
       cut += 1 + bytes.size() / 61) {
    const IoResult<LoadedModel> result = decode(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut));
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes loaded";
  }
}

// Byte-flip sweep: every single-byte corruption must come back as a typed
// error or, under kFull, as the identical model (only the reserved header
// bytes sit outside the CRC). A kTrustChecksum load may accept a different
// model, but it must never crash or read out of bounds (ASan-clean).
TEST(PackedModel, EveryByteFlipFailsCleanlyOrLoadsIdentically) {
  const Fixture& fx = fixture();
  const std::vector<int> want =
      reference::predict_dataset(fx.model, fx.data.features);
  const std::vector<std::uint8_t> bytes = read_bytes(packed_fixture_path());
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (const std::uint8_t mask : {0x01, 0xFF}) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[at] ^= mask;
      const IoResult<LoadedModel> full = decode(flipped);
      if (full.ok()) {
        EXPECT_EQ(reference::predict_dataset(full->model, fx.data.features),
                  want)
            << "byte " << at << " ^ " << int{mask};
      }
      const IoResult<LoadedModel> trusting =
          decode(flipped, PackedVerify::kTrustChecksum);
      if (trusting.ok()) {
        EXPECT_EQ(trusting->model.n_classes(), fx.model.n_classes());
      }
    }
  }
}

// --- convolutional packed models --------------------------------------------

// Trains a small ConvModel once: 2-channel RINC conv over 1x6x6 frames,
// 4-class classifier on the flattened conv outputs.
struct ConvFixture {
  BitMatrix frames;
  ConvModel model;

  ConvFixture() {
    const BinShape3 in_shape{1, 6, 6};
    frames = testing::random_bits(200, in_shape.flat(), 61);
    RincConvConfig config;
    config.out_channels = 2;
    config.kernel = 3;
    config.stride = 1;
    config.padding = 1;
    config.rinc = {.lut_inputs = 4, .levels = 1, .total_dts = 4};
    const BitMatrix targets = testing::random_bits(200, 2 * 6 * 6, 62);
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
  return *[] {
    static const ConvFixture* fx = new ConvFixture;
    return fx;
  }();
}

// Writes the conv fixture once; every conv read-side test loads this file.
const std::string& packed_conv_fixture_path() {
  static const std::string path = [] {
    const std::string p = temp_path("poetbin_conv_fixture.pbm");
    const IoStatus status =
        write_packed_conv_model_file(conv_fixture().model, p);
    POETBIN_CHECK_MSG(status.ok(), "conv fixture pack failed");
    return p;
  }();
  return path;
}

TEST(PackedConvModel, RoundTripPreservesPredictions) {
  const ConvFixture& fx = conv_fixture();
  const IoResult<LoadedModel> loaded =
      read_model_file_any(packed_conv_fixture_path());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->format, ModelFormat::kPacked);
  ASSERT_NE(loaded->conv, nullptr);
  EXPECT_EQ(loaded->conv->input_shape(), fx.model.conv.input_shape());
  EXPECT_EQ(loaded->conv->output_shape(), fx.model.conv.output_shape());
  EXPECT_EQ(loaded->conv->config().kernel, fx.model.conv.config().kernel);
  EXPECT_EQ(loaded->conv->config().stride, fx.model.conv.config().stride);
  EXPECT_EQ(loaded->conv->config().padding, fx.model.conv.config().padding);

  const ConvModel round{*loaded->conv, loaded->model};
  const std::vector<int> want = reference::predict_dataset(fx.model, fx.frames);
  EXPECT_EQ(reference::predict_dataset(round, fx.frames), want);
  // The fused word-parallel path over the loaded LUTs, across backends.
  testing::BackendGuard guard;
  for (const WordBackend backend : available_word_backends()) {
    set_word_backend(backend);
    for (const std::size_t threads : {1u, 2u, 5u}) {
      const BatchEngine engine(threads);
      EXPECT_EQ(round.predict_dataset_batched(fx.frames, engine), want)
          << word_backend_name(backend) << " x" << threads;
    }
  }
}

// The serving load depth (kTrustChecksum, what Runtime::load runs) must be
// bit-identical to full verification for conv files too.
TEST(PackedConvModel, TrustChecksumLoadsIdenticallyToFullVerify) {
  const ConvFixture& fx = conv_fixture();
  const IoResult<LoadedModel> trusting = read_model_file_any(
      packed_conv_fixture_path(), PackedVerify::kTrustChecksum);
  ASSERT_TRUE(trusting.ok()) << trusting.error().message;
  ASSERT_NE(trusting->conv, nullptr);
  const ConvModel round{*trusting->conv, trusting->model};
  EXPECT_EQ(reference::predict_dataset(round, fx.frames),
            reference::predict_dataset(fx.model, fx.frames));
}

// Re-packing a loaded conv model reproduces the file byte for byte: the
// writer is deterministic and the round trip is lossless.
TEST(PackedConvModel, PackedRoundTripIsByteIdentical) {
  const IoResult<LoadedModel> loaded =
      read_model_file_any(packed_conv_fixture_path());
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded->conv, nullptr);
  const std::string again = temp_path("poetbin_conv_repacked.pbm");
  ASSERT_TRUE(write_packed_conv_model_file(
                  ConvModel{*loaded->conv, loaded->model}, again)
                  .ok());
  EXPECT_EQ(read_bytes(packed_conv_fixture_path()), read_bytes(again));
  std::remove(again.c_str());
}

// Text -> packed -> text byte identity for the conv format.
TEST(PackedConvModel, TextPackedTextIsByteIdentical) {
  const ConvFixture& fx = conv_fixture();
  std::stringstream original;
  save_conv_model(fx.model, original);
  const IoResult<LoadedModel> unpacked =
      read_model_file_any(packed_conv_fixture_path());
  ASSERT_TRUE(unpacked.ok());
  ASSERT_NE(unpacked->conv, nullptr);
  std::stringstream reprinted;
  save_conv_model(ConvModel{*unpacked->conv, unpacked->model}, reprinted);
  EXPECT_EQ(original.str(), reprinted.str());
}

// Conv text files sniff through read_model_file_any like packed ones.
TEST(PackedConvModel, TextConvSniffsThroughReadAny) {
  const ConvFixture& fx = conv_fixture();
  const std::string text_path = temp_path("poetbin_conv_fixture.txt");
  ASSERT_TRUE(write_conv_model_file(fx.model, text_path).ok());
  const IoResult<LoadedModel> loaded = read_model_file_any(text_path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->format, ModelFormat::kText);
  ASSERT_NE(loaded->conv, nullptr);
  const ConvModel round{*loaded->conv, loaded->model};
  EXPECT_EQ(reference::predict_dataset(round, fx.frames),
            reference::predict_dataset(fx.model, fx.frames));
  std::remove(text_path.c_str());
}

// A dense file loaded through read_model_file_any carries no conv layer —
// the zero-length conv-config section reads back as "dense".
TEST(PackedConvModel, DenseFileHasNoConvLayer) {
  const IoResult<LoadedModel> loaded =
      read_model_file_any(packed_fixture_path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->conv, nullptr);
}

// Writer-side guards: inconsistent conv models are refused, not packed.
TEST(PackedConvModel, WriterRejectsInconsistentConvModels) {
  const ConvFixture& fx = conv_fixture();
  const std::string path = temp_path("conv_reject.pbm");
  // An untrained (empty) conv layer.
  ConvModel empty;
  empty.classifier = fx.model.classifier;
  const IoStatus no_conv = write_packed_conv_model_file(empty, path);
  ASSERT_FALSE(no_conv.ok());
  EXPECT_EQ(no_conv.error().kind, ModelIoError::Kind::kWriteFailed);
  // A classifier explicitly wired to feature 100 — beyond the 72 conv
  // output bits of the 2x6x6 front end.
  ConvModel mismatched;
  mismatched.conv = fx.model.conv;
  {
    PoetBinConfig config;
    config.rinc.lut_inputs = 2;
    config.n_classes = 2;
    std::vector<RincModule> modules;
    for (std::size_t m = 0; m < 4; ++m) {
      BitVector table(4);
      table.set(3, true);
      modules.push_back(
          RincModule::make_leaf(Lut({m, 100}, std::move(table))));
    }
    const QuantizerParams quantizer;
    std::vector<SparseOutputNeuron> neurons(2);
    for (std::size_t c = 0; c < 2; ++c) {
      neurons[c].input_modules = {c * 2, c * 2 + 1};
      neurons[c].weights.assign(2, 0.0f);
      neurons[c].codes.assign(4, 0);
    }
    mismatched.classifier = PoetBin::from_parts(
        config, std::move(modules), std::move(neurons), quantizer);
  }
  const IoStatus too_wide = write_packed_conv_model_file(mismatched, path);
  ASSERT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.error().kind, ModelIoError::Kind::kWriteFailed);
}

// Every truncation prefix of a conv file fails with a typed error.
TEST(PackedConvModel, EveryTruncationPointFailsCleanly) {
  const std::vector<std::uint8_t> bytes =
      read_bytes(packed_conv_fixture_path());
  for (std::size_t cut = 0; cut < bytes.size();
       cut += 1 + bytes.size() / 61) {
    const IoResult<LoadedModel> result = decode(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut));
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes loaded";
  }
}

// The byte-flip sweep of the dense test, over a conv file.
TEST(PackedConvModel, EveryByteFlipFailsCleanlyOrLoadsIdentically) {
  const ConvFixture& fx = conv_fixture();
  const std::vector<int> want = reference::predict_dataset(fx.model, fx.frames);
  const std::vector<std::uint8_t> bytes =
      read_bytes(packed_conv_fixture_path());
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (const std::uint8_t mask : {0x01, 0xFF}) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[at] ^= mask;
      const IoResult<LoadedModel> full = decode(flipped);
      if (full.ok()) {
        ASSERT_NE(full->conv, nullptr) << "byte " << at;
        EXPECT_EQ(reference::predict_dataset(
                      ConvModel({*full->conv, full->model}), fx.frames),
                  want)
            << "byte " << at << " ^ " << int{mask};
      }
      const IoResult<LoadedModel> trusting =
          decode(flipped, PackedVerify::kTrustChecksum);
      if (trusting.ok()) {
        EXPECT_NE(trusting->conv, nullptr);
      }
    }
  }
}

// Corrupt conv geometry in an otherwise well-formed file (CRC fixed up) is
// a typed kCorruptSection, never a validate() abort.
TEST(PackedConvModel, CorruptConvGeometryIsCorruptSection) {
  const std::vector<std::uint8_t> bytes =
      read_bytes(packed_conv_fixture_path());
  // Section table entry 8 (0-based, id order) is conv-config; its payload
  // holds 7 u64 scalars starting with the input shape.
  const std::uint64_t conv_offset = section_field(bytes, 8, 8);
  ASSERT_GT(section_field(bytes, 8, 16), 0u);  // non-empty on a conv file
  const auto corrupt_scalar = [&](std::size_t index, std::uint64_t value,
                                  const std::string& name) {
    std::vector<std::uint8_t> mutated = bytes;
    std::memcpy(mutated.data() + conv_offset + index * 8, &value,
                sizeof(value));
    fix_crc(mutated);
    const IoResult<LoadedModel> result = decode(mutated);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection)
        << name;
  };
  corrupt_scalar(0, 0, "zero input channels");
  corrupt_scalar(4, 0, "zero kernel");
  corrupt_scalar(4, std::uint64_t{1} << 32, "kernel beyond the cap");
  corrupt_scalar(5, 0, "zero stride");
  corrupt_scalar(6, 99, "padding >= kernel");
}

// --- module depth cap -------------------------------------------------------

// A fanin-1 chain of `depth` MAT nodes over one leaf reading `feature`.
RincModule chain_module(std::size_t depth, std::size_t feature) {
  BitVector table(2);
  table.set(1, true);
  RincModule module = RincModule::make_leaf(Lut({feature}, std::move(table)));
  for (std::size_t d = 0; d < depth; ++d) {
    std::vector<RincModule> children;
    children.push_back(std::move(module));
    module = RincModule::make_internal(std::move(children), MatModule({1.0}));
  }
  return module;
}

// One class over P = 2 modules of the given levels. Both writers declare the
// first module's level as the model's RINC levels.
PoetBin two_module_model(std::size_t first_level, std::size_t second_level) {
  PoetBinConfig config;
  config.rinc.lut_inputs = 2;
  config.n_classes = 1;
  std::vector<RincModule> modules;
  modules.push_back(chain_module(first_level, 0));
  modules.push_back(chain_module(second_level, 1));
  std::vector<SparseOutputNeuron> neurons(1);
  neurons[0].input_modules = {0, 1};
  neurons[0].weights.assign(2, 0.0f);
  neurons[0].codes = {0, 1, 2, 3};
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             QuantizerParams{});
}

// A 1 x 2 x 2 conv front end whose one channel module is `depth` deep,
// feeding a two-module classifier.
ConvModel conv_model_of_depth(std::size_t depth) {
  RincConvConfig config;
  config.out_channels = 1;
  config.kernel = 1;
  config.stride = 1;
  config.padding = 0;
  std::vector<RincModule> channels;
  channels.push_back(chain_module(depth, 0));
  ConvModel model;
  model.conv = RincConvLayer::from_parts({1, 2, 2}, config, std::move(channels));
  model.classifier = two_module_model(0, 0);
  return model;
}

// A too-deep tree is a typed kCorruptSection from the text decoder, and
// the writers refuse to publish it: their own check is the same decoder.
void expect_too_deep(const std::string& text, const IoStatus& packed) {
  const IoResult<LoadedModel> loaded =
      read_model_bytes(text.data(), text.size());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().kind, ModelIoError::Kind::kCorruptSection)
      << loaded.error().message;
  ASSERT_FALSE(packed.ok());
  EXPECT_EQ(packed.error().kind, ModelIoError::Kind::kWriteFailed);
  EXPECT_NE(packed.error().message.find("deeper than its RINC levels"),
            std::string::npos)
      << packed.error().message;
}

// A classifier tree one level deeper than the config declares is a typed
// error in both formats; a shallower one still loads (the declared levels
// cap the depth, they do not fix it).
TEST(ModuleDepthCap, DenseTreeBeyondDeclaredLevelsIsCorruptSection) {
  const std::string text = temp_path("deep_dense.txt");
  const std::string packed = temp_path("deep_dense.pbm");
  const PoetBin deep = two_module_model(1, 2);
  expect_too_deep(saved(deep), write_packed_model_file(deep, packed));
  EXPECT_FALSE(write_model_file(deep, text).ok());

  const PoetBin shallow = two_module_model(2, 1);
  const BitMatrix features = testing::random_bits(70, 2, 5);
  ASSERT_TRUE(write_model_file(shallow, text).ok());
  ASSERT_TRUE(write_packed_model_file(shallow, packed).ok());
  for (const std::string& path : {text, packed}) {
    const IoResult<LoadedModel> loaded = read_model_file_any(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(reference::predict_dataset(loaded->model, features),
              reference::predict_dataset(shallow, features));
  }

  // The packed decoder itself: the same file declaring one level fewer
  // (config scalar 1) than its first tree holds.
  Bytes bytes = read_bytes(packed);
  const std::uint64_t declared = 1;
  std::memcpy(bytes.data() + section_field(bytes, 0, 8) + 8, &declared,
              sizeof(declared));
  fix_crc(bytes);
  const IoResult<LoadedModel> patched = decode(bytes);
  ASSERT_FALSE(patched.ok());
  EXPECT_EQ(patched.error().kind, ModelIoError::Kind::kCorruptSection);
  std::remove(text.c_str());
  std::remove(packed.c_str());
}

// Conv channel trees store no levels, so they take kMaxRincLevels.
TEST(ModuleDepthCap, ConvTreeBeyondTheCapIsCorruptSection) {
  const std::string text = temp_path("deep_conv.txt");
  const std::string packed = temp_path("deep_conv.pbm");
  const ConvModel deep = conv_model_of_depth(kMaxRincLevels + 1);
  std::stringstream deep_text;
  save_conv_model(deep, deep_text);
  expect_too_deep(deep_text.str(), write_packed_conv_model_file(deep, packed));
  EXPECT_FALSE(write_conv_model_file(deep, text).ok());

  const ConvModel capped = conv_model_of_depth(kMaxRincLevels);
  ASSERT_TRUE(write_conv_model_file(capped, text).ok());
  ASSERT_TRUE(write_packed_conv_model_file(capped, packed).ok());
  for (const std::string& path : {text, packed}) {
    const IoResult<LoadedModel> loaded = read_model_file_any(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    ASSERT_NE(loaded->conv, nullptr);
    EXPECT_EQ(loaded->conv->channel_modules().front().level(),
              kMaxRincLevels);
  }
  std::remove(text.c_str());
  std::remove(packed.c_str());
}

// A hostile 20,000-deep module fails fast with a typed error instead of
// recursing the text parser off the stack.
TEST(ModuleDepthCap, TwentyThousandDeepTextFailsCleanly) {
  std::string nested;
  for (int i = 0; i < 20000; ++i) nested += "node 1 01\n";
  nested += "leaf 1 0 01\n";
  for (const std::string& text :
       {"poetbin-model v2\nconfig 1 1 1 1 1\nquantizer 1 0 1\nmodule 0\n" +
            nested,
        "poetbin-conv-model v2\nconv 1 2 2 1 1 1 0\nchannel 0\n" +
            nested}) {
    const IoResult<LoadedModel> result =
        read_model_bytes(text.data(), text.size());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, ModelIoError::Kind::kCorruptSection);
  }
}

// --- one validator for both encodings ----------------------------------------

// `text` with the whitespace-delimited token after the first `anchor`
// (skipping `skip` more tokens) replaced by `to`.
std::string replace_token(const std::string& text, const std::string& anchor,
                          std::size_t skip, const std::string& to) {
  std::size_t at = text.find(anchor);
  EXPECT_NE(at, std::string::npos) << anchor;
  at += anchor.size();
  for (std::size_t s = 0; s < skip; ++s) at = text.find(' ', at) + 1;
  const std::size_t end = text.find_first_of(" \n", at);
  return text.substr(0, at) + to + text.substr(end);
}

// The packed fixture with its config and quantizer records declaring
// `bits`, CRC fixed up.
Bytes packed_with_quant_bits(std::uint64_t bits) {
  Bytes bytes = read_bytes(packed_fixture_path());
  std::memcpy(bytes.data() + section_field(bytes, 0, 8) + 4 * 8, &bits,
              sizeof(bits));
  std::memcpy(bytes.data() + section_field(bytes, 1, 8), &bits, sizeof(bits));
  fix_crc(bytes);
  return bytes;
}

// A file may declare no wider a quantizer than fit_quantizer retrains: one
// bit more is a typed error in both encodings, and a kMaxQuantBits model
// loads and survives a retrain through the serving Runtime.
TEST(QuantBitsCap, OneBitPastTheTrainerIsCorruptSectionInBothEncodings) {
  const Fixture& fx = fixture();
  for (const int bits : {kMaxQuantBits + 1, kMaxQuantBits}) {
    const std::string value = std::to_string(bits);
    const std::string text = replace_token(
        replace_token(saved(fx.model), "config ", 4, value), "quantizer ", 0,
        value);
    const Bytes packed = packed_with_quant_bits(bits);
    std::vector<IoResult<LoadedModel>> loads;
    loads.push_back(read_model_bytes(text.data(), text.size()));
    loads.push_back(decode(packed));
    for (IoResult<LoadedModel>& loaded : loads) {
      if (bits > kMaxQuantBits) {
        ASSERT_FALSE(loaded.ok()) << bits;
        EXPECT_EQ(loaded.error().kind, ModelIoError::Kind::kCorruptSection);
        continue;
      }
      ASSERT_TRUE(loaded.ok()) << loaded.error().message;
      EXPECT_EQ(loaded->model.quant_bits(), kMaxQuantBits);
      Runtime runtime(std::move(loaded->model), {.threads = 1});
      runtime.retrain_output_layer(fx.data.features, fx.data.labels);
      EXPECT_EQ(runtime.snapshot()->model.quant_bits(), kMaxQuantBits);
    }
  }
}

// A leaf input past 2^32 is one typed error in both encodings, and neither
// writer publishes a model holding one: a file pack writes always loads.
TEST(LeafInputBound, IndexPastTwoToThe32IsCorruptSectionInBothEncodings) {
  const Fixture& fx = fixture();
  const std::uint64_t index = (std::uint64_t{1} << 32) + 1;
  const std::string text =
      replace_token(saved(fx.model), "leaf ", 1, std::to_string(index));
  Bytes packed = read_bytes(packed_fixture_path());
  std::memcpy(packed.data() + section_field(packed, 3, 8), &index,
              sizeof(index));
  fix_crc(packed);
  for (const IoResult<LoadedModel>& loaded :
       {read_model_bytes(text.data(), text.size()), decode(packed)}) {
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().kind, ModelIoError::Kind::kCorruptSection);
    EXPECT_EQ(loaded.error().message,
              "leaf input feature index implausibly large");
  }

  PoetBinConfig config;
  config.rinc.lut_inputs = 1;
  config.n_classes = 1;
  BitVector table(2);
  table.set(1, true);
  std::vector<RincModule> modules;
  modules.push_back(RincModule::make_leaf(
      Lut({static_cast<std::size_t>(index)}, std::move(table))));
  std::vector<SparseOutputNeuron> neurons(1);
  neurons[0].input_modules = {0};
  neurons[0].weights = {1.0f};
  neurons[0].codes = {0, 1};
  const PoetBin wide = PoetBin::from_parts(config, std::move(modules),
                                           std::move(neurons), {});
  const std::string path = temp_path("wide_leaf.pbm");
  for (const IoStatus& written :
       {write_packed_model_file(wide, path), write_model_file(wide, path)}) {
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().kind, ModelIoError::Kind::kWriteFailed);
  }
  EXPECT_FALSE(std::ifstream(path).good());
}

// --- checksum -----------------------------------------------------------------

TEST(PackedCrc, StandardCheckValue) {
  const auto* check = reinterpret_cast<const std::uint8_t*>("123456789");
  EXPECT_EQ(model_io::crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(reference::crc32_bytewise(check, 9), 0xCBF43926u);
}

TEST(PackedCrc, MatchesBytewiseOracleOnRandomBuffers) {
  Rng rng(23);
  std::vector<std::uint8_t> buffer(4097 + 8);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t length = 0; length <= 4097; ++length) {
    const std::size_t start = 1 + length % 7;  // never 8-byte aligned
    ASSERT_EQ(model_io::crc32(buffer.data() + start, length),
              reference::crc32_bytewise(buffer.data() + start, length))
        << length << " bytes at offset " << start;
  }
}

// --- the table image ---------------------------------------------------------

// P = 8: both levels are plane-major with 4-word tables, so the loaded
// Luts read their tables in place through a stride, in the gather program
// and in the word pass alike.
TEST(PackedModel, LoadedTablesViewTheProgramImage) {
  Rng rng(2023);
  const PoetBin model = testing::random_classifier(8, 2, rng, [](Rng& r) {
    return testing::random_rinc(1, 8, 8, 96, r);
  });
  const std::string path = temp_path("wide_tables.pbm");
  ASSERT_TRUE(write_packed_model_file(model, path).ok());
  const IoResult<LoadedModel> loaded =
      read_model_file_any(path, PackedVerify::kTrustChecksum);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const PoetBin& copy = loaded->model;

  const TableImage& image = copy.program().tables();
  auto in_image = [&](const Lut& lut) {
    return lut.table_data() >= image.data &&
           lut.table_data() < image.data + image.size;
  };
  ASSERT_EQ(copy.modules().size(), model.modules().size());
  for (std::size_t m = 0; m < model.modules().size(); ++m) {
    const RincModule& a = model.modules()[m];
    const RincModule& b = copy.modules()[m];
    EXPECT_TRUE(in_image(b.mat_lut()));
    EXPECT_EQ(b.mat_lut(), a.mat_lut());
    for (std::size_t c = 0; c < a.children().size(); ++c) {
      EXPECT_TRUE(in_image(b.children()[c].leaf_lut()));
      EXPECT_EQ(b.children()[c].leaf_lut(), a.children()[c].leaf_lut());
    }
  }

  const BitMatrix features = testing::random_bits(300, 96, 7);
  const BatchEngine engine(2);
  EXPECT_EQ(copy.predict_dataset_batched(features, engine),
            model.predict_dataset_batched(features, engine));
  for (std::size_t m = 0; m < model.modules().size(); m += 5) {
    EXPECT_EQ(copy.modules()[m].eval_dataset_batched(features),
              model.modules()[m].eval_dataset_batched(features));
  }
  for (std::size_t i = 0; i < features.rows(); ++i) {
    ASSERT_EQ(copy.predict(features.row(i)),
              reference::predict_walk(model, features.row(i)));
  }
}

}  // namespace
}  // namespace poetbin
