#include "core/serialize.h"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include <unistd.h>

namespace poetbin {

namespace {

// Internal parse-failure carrier. The parser fails via exception so the
// recursive-descent module loader stays readable; read_model converts it
// into the IoResult error arm at the single API boundary.
struct ParseFailure {
  ModelIoError error;
};

[[noreturn]] void fail(ModelIoError::Kind kind, std::string message) {
  throw ParseFailure{{kind, std::move(message)}};
}

void expect(bool condition, const char* message) {
  if (!condition) fail(ModelIoError::Kind::kCorruptSection, message);
}

std::string bits_to_string(const BitVector& bits) {
  return bits.to_string();  // bit 0 first
}

BitVector bits_from_string(const std::string& text) {
  BitVector bits(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    expect(text[i] == '0' || text[i] == '1',
           "malformed bit string in model file");
    if (text[i] == '1') bits.set(i, true);
  }
  return bits;
}

void save_module(const RincModule& module, std::ostream& out) {
  if (module.is_leaf()) {
    const Lut& lut = module.leaf_lut();
    out << "leaf " << lut.arity();
    for (const auto input : lut.inputs()) out << ' ' << input;
    out << ' ' << bits_to_string(lut.table()) << '\n';
    return;
  }
  out << "node " << module.children().size();
  for (const auto weight : module.mat().weights()) out << ' ' << weight;
  out << '\n';
  for (const auto& child : module.children()) save_module(child, out);
}

// `levels` is how many internal-node levels may still follow.
RincModule load_module(std::istream& in, std::size_t levels) {
  std::string kind;
  expect(static_cast<bool>(in >> kind), "truncated model file");
  if (kind == "leaf") {
    std::size_t arity = 0;
    expect(static_cast<bool>(in >> arity), "truncated leaf record");
    expect(arity >= 1 && arity <= 16, "bad leaf arity");
    std::vector<std::size_t> inputs(arity);
    for (auto& input : inputs) {
      expect(static_cast<bool>(in >> input), "truncated leaf inputs");
    }
    std::string table_text;
    expect(static_cast<bool>(in >> table_text), "truncated leaf table");
    expect(table_text.size() == (std::size_t{1} << arity),
           "leaf table size mismatch");
    return RincModule::make_leaf(
        Lut(std::move(inputs), bits_from_string(table_text)));
  }
  expect(kind == "node", "expected 'leaf' or 'node'");
  expect(levels > 0, "module tree deeper than its RINC levels");
  std::size_t fanin = 0;
  expect(static_cast<bool>(in >> fanin), "truncated node record");
  expect(fanin >= 1 && fanin <= 20, "bad node fanin");
  std::vector<double> weights(fanin);
  for (auto& weight : weights) {
    expect(static_cast<bool>(in >> weight), "truncated node weights");
  }
  std::vector<RincModule> children;
  children.reserve(fanin);
  for (std::size_t c = 0; c < fanin; ++c) {
    children.push_back(load_module(in, levels - 1));
  }
  // make_internal aborts on mixed child levels (a builder-contract check);
  // reject them here so a corrupt file surfaces as an error, not an abort.
  for (const auto& child : children) {
    expect(child.level() == children.front().level(),
           "node children at mixed RINC levels");
  }
  return RincModule::make_internal(std::move(children),
                                   MatModule(std::move(weights)));
}

// The whole parser body; throws ParseFailure on any structural problem.
// Every check that PoetBin::from_parts (or a constructor downstream) would
// abort on is replicated here first, so corrupt bytes can never abort a
// loading process.
PoetBin parse_model(std::istream& in) {
  std::string token;
  std::string version;
  if (!(in >> token >> version) || token != "poetbin-model") {
    fail(ModelIoError::Kind::kVersionMismatch,
         "unrecognised model file header (expected 'poetbin-model v1')");
  }
  if (version != "v1") {
    fail(ModelIoError::Kind::kVersionMismatch,
         "unsupported model format version '" + version + "'");
  }

  PoetBinConfig config;
  std::size_t levels = 0;
  std::size_t total_dts = 0;
  expect(static_cast<bool>(in >> token) && token == "config",
         "expected 'config' section");
  expect(static_cast<bool>(in >> config.rinc.lut_inputs >> levels >>
                           total_dts >> config.n_classes >>
                           config.output.quant_bits),
         "truncated config section");
  config.rinc.levels = levels;
  config.rinc.total_dts = total_dts;
  expect(config.rinc.lut_inputs >= 1 && config.rinc.lut_inputs <= 16,
         "config P out of range");
  expect(levels <= kMaxRincLevels, "config RINC levels out of range");
  expect(config.n_classes >= 1 && config.n_classes <= (std::size_t{1} << 20),
         "config class count out of range");
  expect(config.output.quant_bits >= 1 && config.output.quant_bits <= 24,
         "config quantizer bits out of range");

  QuantizerParams quantizer;
  expect(static_cast<bool>(in >> token) && token == "quantizer",
         "expected 'quantizer' section");
  expect(static_cast<bool>(in >> quantizer.bits >> quantizer.min_value >>
                           quantizer.max_value),
         "truncated quantizer section");
  expect(quantizer.bits == config.output.quant_bits,
         "quantizer/config bit mismatch");

  const std::size_t n_modules = config.n_classes * config.rinc.lut_inputs;
  std::vector<RincModule> modules;
  modules.reserve(n_modules);
  for (std::size_t m = 0; m < n_modules; ++m) {
    std::size_t index = 0;
    expect(static_cast<bool>(in >> token >> index) && token == "module" &&
               index == m,
           "module records out of order");
    modules.push_back(load_module(in, levels));
  }

  std::vector<SparseOutputNeuron> output(config.n_classes);
  const std::size_t n_combos = std::size_t{1} << config.rinc.lut_inputs;
  for (std::size_t c = 0; c < config.n_classes; ++c) {
    std::size_t index = 0;
    SparseOutputNeuron& neuron = output[c];
    expect(static_cast<bool>(in >> token >> index >> neuron.bias) &&
               token == "output" && index == c,
           "output records out of order");
    neuron.input_modules.resize(config.rinc.lut_inputs);
    neuron.weights.resize(config.rinc.lut_inputs);
    neuron.codes.resize(n_combos);
    for (auto& m : neuron.input_modules) {
      expect(static_cast<bool>(in >> m), "truncated output wiring");
      expect(m < n_modules, "output wiring references a missing module");
    }
    for (auto& w : neuron.weights) {
      expect(static_cast<bool>(in >> w), "truncated output weights");
    }
    for (auto& code : neuron.codes) {
      expect(static_cast<bool>(in >> code), "truncated output codes");
      expect(code < quantizer.levels(), "output code beyond quantizer range");
    }
  }

  return PoetBin::from_parts(std::move(config), std::move(modules),
                             std::move(output), quantizer);
}

// Conv parser body: conv geometry + per-channel modules, then the embedded
// classifier via parse_model (the dense grammar, header included). Every
// check RincConvLayer::from_parts / PoetBin::from_parts would abort on is
// replicated here as a typed error first.
ConvModel parse_conv_model(std::istream& in) {
  std::string token;
  std::string version;
  if (!(in >> token >> version) || token != "poetbin-conv-model") {
    fail(ModelIoError::Kind::kVersionMismatch,
         "unrecognised conv model file header (expected "
         "'poetbin-conv-model v1')");
  }
  if (version != "v1") {
    fail(ModelIoError::Kind::kVersionMismatch,
         "unsupported conv model format version '" + version + "'");
  }

  BinShape3 in_shape;
  RincConvConfig config;
  expect(static_cast<bool>(in >> token) && token == "conv",
         "expected 'conv' section");
  expect(static_cast<bool>(in >> in_shape.channels >> in_shape.height >>
                           in_shape.width >> config.out_channels >>
                           config.kernel >> config.stride >> config.padding),
         "truncated conv section");
  const std::size_t dim_cap = std::size_t{1} << 16;
  expect(in_shape.channels >= 1 && in_shape.channels <= dim_cap &&
             in_shape.height >= 1 && in_shape.height <= dim_cap &&
             in_shape.width >= 1 && in_shape.width <= dim_cap,
         "conv input shape out of range");
  expect(config.out_channels >= 1 && config.out_channels <= dim_cap,
         "conv output channel count out of range");
  expect(config.kernel >= 1 && config.kernel <= dim_cap,
         "conv kernel out of range");
  expect(config.stride >= 1 && config.stride <= dim_cap,
         "conv stride out of range");
  expect(config.padding < config.kernel,
         "conv padding must be smaller than the kernel");
  expect(in_shape.height + 2 * config.padding >= config.kernel &&
             in_shape.width + 2 * config.padding >= config.kernel,
         "conv kernel does not fit the padded frame");

  const std::size_t patch_bits =
      in_shape.channels * config.kernel * config.kernel;
  std::vector<RincModule> modules;
  modules.reserve(config.out_channels);
  for (std::size_t channel = 0; channel < config.out_channels; ++channel) {
    std::size_t index = 0;
    expect(static_cast<bool>(in >> token >> index) && token == "channel" &&
               index == channel,
           "channel records out of order");
    modules.push_back(load_module(in, kMaxRincLevels));
    for (const std::size_t feature : modules.back().distinct_features()) {
      expect(feature < patch_bits,
             "conv channel module references a feature beyond the patch "
             "width");
    }
  }

  ConvModel model;
  model.conv =
      RincConvLayer::from_parts(in_shape, std::move(config), std::move(modules));
  model.classifier = parse_model(in);
  expect(model.classifier.n_features() <= model.conv.output_shape().flat(),
         "classifier wired beyond the conv output width");
  return model;
}

// Atomic text publish shared by the file writers: write a same-directory
// temp file and rename it over `path`. A concurrent reader — including a
// serve --watch poll racing the push — sees the complete old file or the
// complete new one, never a truncated half-write.
template <typename WriteBody>
IoStatus write_text_model_file(const std::string& path,
                               const WriteBody& write_body) {
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::ofstream out(temp);
  if (!out) {
    return ModelIoError{ModelIoError::Kind::kWriteFailed,
                        "cannot open '" + temp + "' for writing"};
  }
  write_body(out);
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

void save_model(const PoetBin& model, std::ostream& out) {
  out << "poetbin-model v1\n";
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
}

IoResult<PoetBin> read_model(std::istream& in) {
  try {
    return parse_model(in);
  } catch (const ParseFailure& failure) {
    return failure.error;
  }
}

IoResult<PoetBin> read_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return ModelIoError{ModelIoError::Kind::kFileNotFound,
                        "cannot open '" + path + "' for reading"};
  }
  IoResult<PoetBin> result = read_model(in);
  if (!result.ok()) {
    return ModelIoError{result.error().kind,
                        path + ": " + result.error().message};
  }
  return result;
}

IoStatus write_model_file(const PoetBin& model, const std::string& path) {
  return write_text_model_file(
      path, [&](std::ostream& out) { save_model(model, out); });
}

void save_conv_model(const ConvModel& model, std::ostream& out) {
  const BinShape3 shape = model.conv.input_shape();
  const RincConvConfig& config = model.conv.config();
  out << "poetbin-conv-model v1\n";
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

IoResult<ConvModel> read_conv_model(std::istream& in) {
  try {
    return parse_conv_model(in);
  } catch (const ParseFailure& failure) {
    return failure.error;
  }
}

IoResult<ConvModel> read_conv_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return ModelIoError{ModelIoError::Kind::kFileNotFound,
                        "cannot open '" + path + "' for reading"};
  }
  IoResult<ConvModel> result = read_conv_model(in);
  if (!result.ok()) {
    return ModelIoError{result.error().kind,
                        path + ": " + result.error().message};
  }
  return result;
}

IoStatus write_conv_model_file(const ConvModel& model,
                               const std::string& path) {
  return write_text_model_file(
      path, [&](std::ostream& out) { save_conv_model(model, out); });
}

}  // namespace poetbin
