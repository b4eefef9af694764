#include "core/serialize.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <new>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/model_parts.h"
#include "util/aligned_vector.h"

namespace poetbin {

using model_io::expect;
using model_io::fail;
using model_io::ModelParts;

namespace model_io {

// --- the validator ----------------------------------------------------------

void check_header(const ModelParts& parts) {
  const PoetBinConfig& config = parts.config;
  expect(config.rinc.lut_inputs >= 1 && config.rinc.lut_inputs <= 16,
         "config P out of range");
  expect(config.rinc.levels <= kMaxRincLevels,
         "config RINC levels out of range");
  expect(config.n_classes >= 1 && config.n_classes <= (std::size_t{1} << 20),
         "config class count out of range");
  expect(parts.quant_bits >= 1 && parts.quant_bits <= kMaxQuantBits,
         "config quantizer bits out of range");
  expect(parts.quantizer_bits == parts.quant_bits,
         "quantizer/config bit mismatch");
  if (!parts.conv) return;
  // Every geometry contract RincConvLayer::from_parts would abort on.
  const BinShape3& shape = parts.conv->in_shape;
  const RincConvConfig& conv = parts.conv->config;
  const std::size_t dim_cap = std::size_t{1} << 16;
  expect(shape.channels >= 1 && shape.channels <= dim_cap &&
             shape.height >= 1 && shape.height <= dim_cap &&
             shape.width >= 1 && shape.width <= dim_cap,
         "conv input shape out of range");
  expect(conv.out_channels >= 1 && conv.out_channels <= dim_cap,
         "conv output channel count out of range");
  expect(conv.kernel >= 1 && conv.kernel <= dim_cap,
         "conv kernel out of range");
  expect(conv.stride >= 1 && conv.stride <= dim_cap,
         "conv stride out of range");
  expect(conv.padding < conv.kernel,
         "conv padding must be smaller than the kernel");
  expect(shape.height + 2 * conv.padding >= conv.kernel &&
             shape.width + 2 * conv.padding >= conv.kernel,
         "conv kernel does not fit the padded frame");
}

LoadedModel assemble_model(ModelParts parts, ModelFormat format) {
  parts.config.output.quant_bits = static_cast<int>(parts.quant_bits);
  parts.quantizer.bits = static_cast<int>(parts.quant_bits);
  for (const SparseOutputNeuron& neuron : parts.output) {
    for (const std::size_t module : neuron.input_modules) {
      expect(module < parts.modules.size(),
             "output wiring references a missing module");
    }
    for (const std::uint32_t code : neuron.codes) {
      expect(code < parts.quantizer.levels(),
             "output code beyond quantizer range");
    }
  }
  LoadedModel loaded{
      PoetBin::from_parts(std::move(parts.config), std::move(parts.modules),
                          std::move(parts.output), parts.quantizer,
                          parts.tables.data != nullptr ? &parts.tables
                                                       : nullptr),
      format, nullptr};
  if (parts.conv) {
    ModelParts::Conv& conv = *parts.conv;
    const std::size_t patch_bits =
        conv.in_shape.channels * conv.config.kernel * conv.config.kernel;
    for (const RincModule& module : conv.modules) {
      for (const std::size_t feature : module.distinct_features()) {
        expect(feature < patch_bits,
               "conv channel module references a feature beyond the patch "
               "width");
      }
    }
    loaded.conv = std::make_shared<const RincConvLayer>(
        RincConvLayer::from_parts(conv.in_shape, std::move(conv.config),
                                  std::move(conv.modules)));
    expect(loaded.model.n_features() <= loaded.conv->output_shape().flat(),
           "classifier wired beyond the conv output width");
  }
  return loaded;
}

std::shared_ptr<std::uint64_t[]> aligned_bytes(std::size_t n_bytes) {
  const std::size_t n_words = std::max<std::size_t>(1, (n_bytes + 7) / 8);
  auto* words = static_cast<std::uint64_t*>(::operator new(
      n_words * sizeof(std::uint64_t), std::align_val_t{kWordAlignment}));
  return std::shared_ptr<std::uint64_t[]>(words, [](std::uint64_t* p) {
    ::operator delete(p, std::align_val_t{kWordAlignment});
  });
}

// --- the publish helper -----------------------------------------------------

IoStatus publish_model_file(const std::string& path, std::string_view bytes) {
  const IoResult<LoadedModel> check =
      read_model_bytes(bytes.data(), bytes.size());
  if (!check.ok()) {
    return ModelIoError{ModelIoError::Kind::kWriteFailed,
                        "refusing to write '" + path +
                            "', which would not load: " +
                            check.error().message};
  }
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return ModelIoError{ModelIoError::Kind::kWriteFailed,
                        "cannot open '" + temp + "' for writing"};
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  out.close();
  if (!out) {
    std::remove(temp.c_str());
    return ModelIoError{ModelIoError::Kind::kWriteFailed,
                        "write to '" + temp + "' failed"};
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return ModelIoError{ModelIoError::Kind::kWriteFailed,
                        "cannot rename '" + temp + "' over '" + path + "'"};
  }
  return IoStatus();
}

}  // namespace model_io

namespace {

// --- the text codec ---------------------------------------------------------

void save_module(const RincModule& module, std::ostream& out) {
  if (module.is_leaf()) {
    const Lut& lut = module.leaf_lut();
    out << "leaf " << lut.arity();
    for (const auto input : lut.inputs()) out << ' ' << input;
    out << ' ' << lut.table().to_string() << '\n';  // bit 0 first
    return;
  }
  out << "node " << module.fanin() << ' '
      << module.mat_lut().table().to_string() << '\n';
  for (const auto& child : module.children()) save_module(child, out);
}

// A read-only view of the caller's bytes, so the text decoder reads its
// tokens straight from memory.
struct MemoryBuf : std::streambuf {
  MemoryBuf(const char* data, std::size_t size) {
    char* begin = const_cast<char*>(data);
    setg(begin, begin, begin + size);
  }
};

// Whitespace-separated tokens; model_io::decode_tree's text source.
struct TextSource {
  std::istream& in;

  template <typename T>
  T next(const char* truncated) {
    T value{};
    expect(static_cast<bool>(in >> value), truncated);
    return value;
  }
  // Reads a section's opening `word`.
  void section(const std::string& word) {
    std::string token;
    if (!(in >> token) || token != word) {
      fail(ModelIoError::Kind::kCorruptSection,
           "expected '" + word + "' section");
    }
  }
  // Reads `keyword <index>` and requires both.
  void record(const char* keyword, std::size_t index, const char* message) {
    std::string token;
    std::size_t at = 0;
    expect(static_cast<bool>(in >> token >> at) && token == keyword &&
               at == index,
           message);
  }

  model_io::NodeRecord node() {
    const auto kind = next<std::string>("truncated model file");
    const bool leaf = kind == "leaf";
    expect(leaf || kind == "node", "expected 'leaf' or 'node'");
    return {leaf, next<std::size_t>(leaf ? "truncated leaf record"
                                         : "truncated node record")};
  }
  // A leaf's or a MAT's table: 2^arity bits, bit 0 first.
  BitVector table(std::size_t arity) {
    const auto text = next<std::string>("truncated LUT table");
    expect(text.size() == (std::size_t{1} << arity), "table size mismatch");
    BitVector bits(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
      expect(text[i] == '0' || text[i] == '1',
             "malformed bit string in model file");
      if (text[i] == '1') bits.set(i, true);
    }
    return bits;
  }
  Lut leaf(std::size_t arity) {
    std::vector<std::size_t> inputs(arity);
    for (std::size_t& input : inputs) {
      input = model_io::leaf_input(
          next<std::uint64_t>("truncated leaf inputs"));
    }
    return Lut(std::move(inputs), table(arity));
  }
  Lut mat_lut(std::size_t fanin) {
    return Lut(std::vector<std::size_t>(fanin, 0), table(fanin));
  }
};

void expect_version(const std::string& version) {
  if (version != "v2") {
    fail(ModelIoError::Kind::kVersionMismatch,
         "unsupported model format version '" + version +
             "' (this build reads v2; re-export the model with this build)");
  }
}

// A dense file, or a conv file: its conv section, then the embedded dense
// classifier, header included.
ModelParts decode_text(std::istream& in) {
  TextSource source{in};
  RincTreeBuilder builder;
  ModelParts parts;
  std::string magic;
  std::string version;
  in >> magic >> version;
  if (magic == "poetbin-conv-model") {
    expect_version(version);
    ModelParts::Conv& conv = parts.conv.emplace();
    source.section("conv");
    for (std::size_t* field :
         {&conv.in_shape.channels, &conv.in_shape.height,
          &conv.in_shape.width, &conv.config.out_channels,
          &conv.config.kernel, &conv.config.stride, &conv.config.padding}) {
      *field = source.next<std::size_t>("truncated conv section");
    }
    // Unchecked counts are safe to loop on: every record consumes input.
    for (std::size_t c = 0; c < conv.config.out_channels; ++c) {
      source.record("channel", c, "channel records out of order");
      conv.modules.push_back(builder.module(
          model_io::decode_tree(source, builder, kMaxRincLevels)));
    }
    magic.clear();
    in >> magic >> version;
  }
  if (magic != "poetbin-model") {
    fail(ModelIoError::Kind::kVersionMismatch,
         "unrecognised model file header (expected 'poetbin-model v2')");
  }
  expect_version(version);

  PoetBinConfig& config = parts.config;
  source.section("config");
  for (std::size_t* field :
       {&config.rinc.lut_inputs, &config.rinc.levels, &config.rinc.total_dts,
        &config.n_classes}) {
    *field = source.next<std::size_t>("truncated config section");
  }
  parts.quant_bits = source.next<std::uint64_t>("truncated config section");
  source.section("quantizer");
  parts.quantizer_bits =
      source.next<std::uint64_t>("truncated quantizer section");
  parts.quantizer.min_value = source.next<float>("truncated quantizer section");
  parts.quantizer.max_value = source.next<float>("truncated quantizer section");
  model_io::check_header(parts);

  const std::size_t p = config.rinc.lut_inputs;
  for (std::size_t m = 0; m < config.n_classes * p; ++m) {
    source.record("module", m, "module records out of order");
    parts.modules.push_back(builder.module(
        model_io::decode_tree(source, builder, config.rinc.levels)));
  }
  for (std::size_t c = 0; c < config.n_classes; ++c) {
    SparseOutputNeuron& neuron = parts.output.emplace_back();
    source.record("output", c, "output records out of order");
    neuron.bias = source.next<float>("output records out of order");
    neuron.input_modules.resize(p);
    neuron.weights.resize(p);
    neuron.codes.resize(std::size_t{1} << p);
    for (auto& m : neuron.input_modules) {
      m = source.next<std::size_t>("truncated output wiring");
    }
    for (auto& w : neuron.weights) {
      w = source.next<float>("truncated output weights");
    }
    for (auto& code : neuron.codes) {
      code = source.next<std::uint32_t>("truncated output codes");
    }
  }
  return parts;
}

}  // namespace

const char* model_io_error_kind_name(ModelIoError::Kind kind) {
  switch (kind) {
    case ModelIoError::Kind::kFileNotFound: return "file-not-found";
    case ModelIoError::Kind::kVersionMismatch: return "version-mismatch";
    case ModelIoError::Kind::kCorruptSection: return "corrupt-section";
    case ModelIoError::Kind::kWriteFailed: return "write-failed";
    case ModelIoError::Kind::kChecksumMismatch: return "checksum-mismatch";
    case ModelIoError::Kind::kIncompatibleModel: return "incompatible-model";
  }
  return "unknown";
}

const char* model_format_name(ModelFormat format) {
  switch (format) {
    case ModelFormat::kText: return "text";
    case ModelFormat::kPacked: return "packed";
  }
  return "unknown";
}

namespace {

// Decodes `size` bytes at `data`, 8-byte aligned and kept alive by `owner`
// (a packed model's Luts view them in place).
IoResult<LoadedModel> decode_model(std::shared_ptr<const void> owner,
                                   const std::uint8_t* data, std::size_t size,
                                   PackedVerify verify) {
  try {
    if (model_io::has_packed_magic(data, size)) {
      return model_io::assemble_model(
          model_io::decode_packed(std::move(owner), data, size, verify),
          ModelFormat::kPacked);
    }
    MemoryBuf buffer(reinterpret_cast<const char*>(data), size);
    std::istream in(&buffer);
    return model_io::assemble_model(decode_text(in), ModelFormat::kText);
  } catch (const model_io::DecodeFailure& failure) {
    return failure.error;
  }
}

}  // namespace

IoResult<LoadedModel> read_model_bytes(const void* data, std::size_t size,
                                       PackedVerify verify) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  if (!model_io::has_packed_magic(bytes, size)) {
    return decode_model(nullptr, bytes, size, verify);
  }
  // The loaded model views its tables in place, so it gets its own copy.
  std::shared_ptr<std::uint64_t[]> copy = model_io::aligned_bytes(size);
  std::memcpy(copy.get(), data, size);
  const auto* copied = reinterpret_cast<const std::uint8_t*>(copy.get());
  return decode_model(std::move(copy), copied, size, verify);
}

IoResult<LoadedModel> read_model_file_any(const std::string& path,
                                          PackedVerify verify) {
  // One read(2) loop into one aligned buffer the loaded model adopts.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat info {};
  bool read_ok = fd >= 0 && ::fstat(fd, &info) == 0 && S_ISREG(info.st_mode);
  const auto want = static_cast<std::size_t>(read_ok ? info.st_size : 0);
  std::shared_ptr<std::uint64_t[]> bytes = model_io::aligned_bytes(want);
  std::size_t size = 0;
  for (ssize_t got = 1; read_ok && got != 0 && size < want;) {
    got = ::read(fd, reinterpret_cast<char*>(bytes.get()) + size, want - size);
    read_ok = got >= 0 || errno == EINTR;
    if (got > 0) size += static_cast<std::size_t>(got);
  }
  if (fd >= 0) ::close(fd);
  if (!read_ok) {
    return ModelIoError{ModelIoError::Kind::kFileNotFound,
                        "cannot open '" + path + "' for reading"};
  }
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.get());
  IoResult<LoadedModel> loaded =
      decode_model(std::move(bytes), data, size, verify);
  if (!loaded.ok()) {
    return ModelIoError{loaded.error().kind,
                        path + ": " + loaded.error().message};
  }
  return loaded;
}

void save_model(const PoetBin& model, std::ostream& out) {
  // Enough digits that every float reads back bit-exactly.
  const std::streamsize precision =
      out.precision(std::numeric_limits<float>::max_digits10);
  out << "poetbin-model v2\n";
  out << "config " << model.lut_inputs() << ' '
      << (model.modules().empty() ? 0 : model.modules().front().level()) << ' '
      << (model.modules().empty() ? 0 : model.modules().front().leaf_dt_count())
      << ' ' << model.n_classes() << ' ' << model.quant_bits() << '\n';
  const QuantizerParams& q = model.quantizer();
  out << "quantizer " << q.bits << ' ' << q.min_value << ' ' << q.max_value
      << '\n';
  for (std::size_t m = 0; m < model.n_modules(); ++m) {
    out << "module " << m << '\n';
    save_module(model.modules()[m], out);
  }
  for (std::size_t c = 0; c < model.n_classes(); ++c) {
    const SparseOutputNeuron& neuron = model.output_neurons()[c];
    out << "output " << c << ' ' << neuron.bias;
    for (const auto module_index : neuron.input_modules) {
      out << ' ' << module_index;
    }
    for (const auto weight : neuron.weights) out << ' ' << weight;
    for (const auto code : neuron.codes) out << ' ' << code;
    out << '\n';
  }
  out.precision(precision);
}

void save_conv_model(const ConvModel& model, std::ostream& out) {
  const BinShape3 shape = model.conv.input_shape();
  const RincConvConfig& config = model.conv.config();
  out << "poetbin-conv-model v2\n";
  out << "conv " << shape.channels << ' ' << shape.height << ' '
      << shape.width << ' ' << config.out_channels << ' ' << config.kernel
      << ' ' << config.stride << ' ' << config.padding << '\n';
  const auto& modules = model.conv.channel_modules();
  for (std::size_t channel = 0; channel < modules.size(); ++channel) {
    out << "channel " << channel << '\n';
    save_module(modules[channel], out);
  }
  save_model(model.classifier, out);
}

IoStatus write_model_file(const PoetBin& model, const std::string& path) {
  std::ostringstream out;
  save_model(model, out);
  return model_io::publish_model_file(path, out.view());
}

IoStatus write_conv_model_file(const ConvModel& model,
                               const std::string& path) {
  std::ostringstream out;
  save_conv_model(model, out);
  return model_io::publish_model_file(path, out.view());
}

}  // namespace poetbin
