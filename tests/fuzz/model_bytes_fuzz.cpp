// Fuzz target for the one model decoder: any bytes through read_model_bytes
// at both verify depths must come back as a model or a typed ModelIoError,
// never a crash or an out-of-bounds read. A model that loads is run once on
// a probe input, so the views a packed load hands its LUTs get read too.
//
// LLVMFuzzerTestOneInput is libFuzzer's entry point; fuzz_seeds() gives the
// in-tree replay runner (replay_main.cpp) its starting inputs, built from
// fresh models: a packed dense file, a packed conv file and a text file.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/batch_eval.h"
#include "core/model_parts.h"
#include "core/packed_model.h"
#include "core/serialize.h"
#include "fuzz/fuzz_target.h"
#include "test_util.h"

namespace poetbin {
namespace {

// Widest probe input the target allocates (a hostile leaf index may name
// feature 2^32).
constexpr std::size_t kMaxProbeBits = std::size_t{1} << 16;

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "model_bytes_fuzz: %s\n", what);
  std::abort();
}

// The model's class for an all-ones probe (-1 when the probe, or the conv
// pass's padded frame and output, would be too wide to build).
int probe(const LoadedModel& loaded) {
  if (loaded.conv != nullptr) {
    const RincConvLayer& conv = *loaded.conv;
    const BinShape3 in = conv.input_shape();
    const RincConvConfig& config = conv.config();
    const std::size_t padded_words =
        in.channels * (in.height + 2 * config.padding) *
        (in.width + 2 * config.padding + config.stride);
    if (in.flat() > kMaxProbeBits || padded_words > kMaxProbeBits ||
        conv.output_shape().flat() > kMaxProbeBits) {
      return -1;
    }
    if (conv.output_shape().flat() < loaded.model.n_features()) {
      fail("conv output narrower than its classifier");
    }
    const BitVector frame(in.flat(), true);
    const BitVector* rows[] = {&frame};
    return predict_conv_dataset(conv, loaded.model,
                                BitMatrix::from_rows(rows), BatchEngine(1))[0];
  }
  if (loaded.model.n_features() > kMaxProbeBits) return -1;
  return loaded.model.predict(BitVector(loaded.model.n_features(), true));
}

// Writes `model` through `write` and returns the file's bytes.
template <typename Write>
std::vector<std::uint8_t> file_bytes(Write write, const std::string& name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded at seed time.
  const char* dir = std::getenv("TMPDIR");
  const std::string path = std::string(dir && *dir ? dir : "/tmp") + "/" +
                           name + "." + std::to_string(::getpid());
  if (!write(path).ok()) fail("could not write a seed model");
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) fail("could not read a seed model back");
  std::vector<std::uint8_t> bytes;
  for (int c = std::fgetc(file); c != EOF; c = std::fgetc(file)) {
    bytes.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(file);
  std::remove(path.c_str());
  return bytes;
}

}  // namespace
}  // namespace poetbin

std::vector<std::vector<std::uint8_t>> fuzz_seeds() {
  using namespace poetbin;
  Rng rng(20231019);
  // Leaves of arity 3 and 8 put a plane-major level with strided views
  // beside a one-word level; the conv channels read a 2 x 4 x 4 frame.
  const PoetBin dense = testing::random_classifier(3, 2, rng, [](Rng& r) {
    return testing::random_rinc(1, 3, 3, 40, r);
  });
  const PoetBin wide = testing::random_classifier(2, 2, rng, [](Rng& r) {
    return testing::random_rinc(1, 2, 8, 24, r);
  });
  RincConvConfig conv_config;
  conv_config.out_channels = 2;
  conv_config.kernel = 3;
  conv_config.stride = 1;
  conv_config.padding = 1;
  std::vector<RincModule> channels;
  for (std::size_t c = 0; c < conv_config.out_channels; ++c) {
    channels.push_back(testing::random_rinc(1, 2, 4, 18, rng));
  }
  ConvModel conv;
  conv.conv = RincConvLayer::from_parts({2, 4, 4}, conv_config,
                                        std::move(channels));
  conv.classifier = testing::random_classifier(2, 2, rng, [](Rng& r) {
    return testing::random_rinc(1, 2, 3, 32, r);
  });
  return {
      file_bytes([&](const std::string& p) {
        return write_packed_model_file(dense, p);
      }, "fuzz_dense.pbm"),
      file_bytes([&](const std::string& p) {
        return write_packed_model_file(wide, p);
      }, "fuzz_wide.pbm"),
      file_bytes([&](const std::string& p) {
        return write_packed_conv_model_file(conv, p);
      }, "fuzz_conv.pbm"),
      file_bytes([&](const std::string& p) {
        return write_model_file(dense, p);
      }, "fuzz_dense.txt"),
  };
}

// Rewrites a packed file's size field and checksum, so a mutant that
// grew, shrank or changed reaches the section checks of either load
// instead of stopping at the header.
void fuzz_fixup(std::vector<std::uint8_t>& input) {
  if (input.size() < 64 ||
      !poetbin::model_io::has_packed_magic(input.data(), input.size())) {
    return;
  }
  const std::uint64_t size = input.size();
  std::memcpy(input.data() + 24, &size, sizeof size);
  const std::uint32_t crc =
      poetbin::model_io::crc32(input.data() + 64, input.size() - 64);
  std::memcpy(input.data() + 20, &crc, sizeof crc);
}

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace poetbin;
  int classes[2] = {-1, -1};
  bool loaded_ok[2] = {false, false};
  const PackedVerify depths[2] = {PackedVerify::kFull,
                                  PackedVerify::kTrustChecksum};
  for (int d = 0; d < 2; ++d) {
    const IoResult<LoadedModel> loaded =
        read_model_bytes(data, size, depths[d]);
    if (!loaded.ok()) {
      switch (loaded.error().kind) {
        case ModelIoError::Kind::kVersionMismatch:
        case ModelIoError::Kind::kCorruptSection:
        case ModelIoError::Kind::kChecksumMismatch:
          break;
        default:
          fail("decode returned an error kind no decode may return");
      }
      continue;
    }
    loaded_ok[d] = true;
    classes[d] = probe(*loaded);
  }
  // Whatever the full check accepts, the trusting load accepts too, and
  // the two models answer alike.
  if (loaded_ok[0] && (!loaded_ok[1] || classes[0] != classes[1])) {
    fail("the trusting load disagrees with the full load");
  }
  return 0;
}
