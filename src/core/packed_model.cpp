#include "core/packed_model.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "boost/mat.h"
#include "dt/lut.h"
#include "util/bitvector.h"

namespace poetbin {

namespace {

constexpr char kMagic[8] = {'P', 'o', 'E', 'T', 'B', 'i', 'N', 'P'};
constexpr std::uint32_t kFormatVersion = 3;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kSectionEntryBytes = 24;
constexpr std::size_t kPayloadAlignment = 64;

// Section ids. The set is closed; unknown ids are rejected so a file cannot
// smuggle payload the checksum "covers" but no one reads.
enum SectionId : std::uint32_t {
  kSecConfig = 1,         // 5 u64 scalars (see write_packed_common)
  kSecQuantizer = 2,      // u64 bits + f32 min + f32 max bit patterns
  kSecNodes = 3,          // pre-order node records: u32 kind, u32 fanin
  kSecLeafInputs = 4,     // u64 feature indices, pre-order
  kSecMatWeights = 5,     // f64 MAT weights, pre-order
  kSecOutputWiring = 6,   // u64 module indices, nc x P
  kSecOutputWeights = 7,  // f32 bit patterns, nc x (P weights + bias)
  kSecOutputCodes = 8,    // u32 codes, nc x 2^P
  kSecTables = 9,         // compact truth-table words, every node, pre-order
  kSecConvConfig = 10,    // 7 u64 conv scalars; zero length = dense
};
constexpr std::uint32_t kSectionCount = 10;
constexpr const char* kSectionNames[kSectionCount] = {
    "config",         "quantizer",      "nodes",         "leaf-inputs",
    "mat-weights",    "output-wiring",  "output-weights", "output-codes",
    "tables",         "conv-config"};

// --- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) -------------------------

const std::uint32_t* crc32_table() {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const std::uint32_t* table = crc32_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- little-endian scalar plumbing ------------------------------------------

// The format is little-endian by declaration; on the (currently untargeted)
// big-endian host we reject files instead of byte-swapping.
bool host_is_little_endian() {
  return std::endian::native == std::endian::little;
}

template <typename T>
T load_scalar(const std::uint8_t* at) {
  T value;
  std::memcpy(&value, at, sizeof(T));
  return value;
}

template <typename T>
void append_scalar(std::vector<std::uint8_t>& out, T value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

void append_f32_bits(std::vector<std::uint8_t>& out, float value) {
  append_scalar(out, std::bit_cast<std::uint32_t>(value));
}

// --- writer -----------------------------------------------------------------

// Per-section byte buffers accumulated by the model walk, then laid out at
// aligned offsets behind the header + section table.
struct SectionBuffers {
  std::vector<std::uint8_t> payload[kSectionCount];
  std::vector<std::uint8_t>& of(SectionId id) { return payload[id - 1]; }
};

void append_table(SectionBuffers& sections, const Lut& lut) {
  const BitVector& table = lut.table();
  for (std::size_t w = 0; w < table.word_count(); ++w) {
    append_scalar(sections.of(kSecTables), table.words()[w]);
  }
}

void append_node_record(SectionBuffers& sections, std::uint32_t kind,
                        std::size_t fanin) {
  append_scalar(sections.of(kSecNodes), kind);
  append_scalar(sections.of(kSecNodes), static_cast<std::uint32_t>(fanin));
}

void pack_module(const RincModule& module, SectionBuffers& sections) {
  if (module.is_leaf()) {
    const Lut& lut = module.leaf_lut();
    append_node_record(sections, 0, lut.arity());
    for (const std::size_t input : lut.inputs()) {
      append_scalar(sections.of(kSecLeafInputs),
                    static_cast<std::uint64_t>(input));
    }
    append_table(sections, lut);
    return;
  }
  append_node_record(sections, 1, module.children().size());
  for (const double weight : module.mat().weights()) {
    append_scalar(sections.of(kSecMatWeights),
                  std::bit_cast<std::uint64_t>(weight));
  }
  append_table(sections, module.mat_lut());
  for (const RincModule& child : module.children()) {
    pack_module(child, sections);
  }
}

// --- loader -----------------------------------------------------------------

// Load-failure carrier, converted to the IoResult error arm at the API
// boundary (same pattern as the text parser).
struct PackFailure {
  ModelIoError error;
};

[[noreturn]] void fail(ModelIoError::Kind kind, std::string message) {
  throw PackFailure{{kind, std::move(message)}};
}

void expect(bool condition, const char* message) {
  if (!condition) fail(ModelIoError::Kind::kCorruptSection, message);
}

// The whole file, read once into a heap buffer that the parse frees.
std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    fail(ModelIoError::Kind::kFileNotFound,
         "cannot open '" + path + "' for reading");
  }
  const std::streamoff size = in.tellg();
  in.seekg(0);
  if (size < 0 || !in) {
    fail(ModelIoError::Kind::kFileNotFound, "cannot read '" + path + "'");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    fail(ModelIoError::Kind::kFileNotFound, "cannot read '" + path + "'");
  }
  return bytes;
}

// One section's payload, consumed front to back by bounds-checked reads.
// Every section is written in the order the loader reads it, so after the
// parse each one must be used up exactly.
struct SectionReader {
  const std::uint8_t* base = nullptr;
  std::uint64_t length = 0;
  const char* name = "";
  std::uint64_t cursor = 0;  // bytes consumed

  const std::uint8_t* take(std::uint64_t count, std::size_t element_bytes) {
    if (count > (length - cursor) / element_bytes) {
      fail(ModelIoError::Kind::kCorruptSection,
           std::string("reference beyond the end of the ") + name +
               " section");
    }
    const std::uint8_t* at = base + cursor;
    cursor += count * element_bytes;
    return at;
  }
  template <typename T>
  T next() {
    return load_scalar<T>(take(1, sizeof(T)));
  }
  void expect_done() const {
    if (cursor != length) {
      fail(ModelIoError::Kind::kCorruptSection,
           std::string("bytes left over in the ") + name + " section");
    }
  }
};

struct PackedFile {
  std::vector<std::uint8_t> bytes;
  SectionReader sections[kSectionCount];

  SectionReader& section(SectionId id) { return sections[id - 1]; }
};

PackedFile parse_container(const std::string& path, PackedVerify verify) {
  if (!host_is_little_endian()) {
    fail(ModelIoError::Kind::kVersionMismatch,
         "packed models are little-endian; this host is not");
  }
  PackedFile file;
  file.bytes = read_file(path);
  const std::uint8_t* bytes = file.bytes.data();
  const std::size_t size = file.bytes.size();
  if (size < kHeaderBytes) {
    fail(ModelIoError::Kind::kCorruptSection,
         "'" + path + "' is too small to hold a packed-model header");
  }
  if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0) {
    fail(ModelIoError::Kind::kVersionMismatch,
         "'" + path + "' is not a packed poetbin model (bad magic)");
  }
  const auto version = load_scalar<std::uint32_t>(bytes + 8);
  if (version != kFormatVersion) {
    fail(ModelIoError::Kind::kVersionMismatch,
         "unsupported packed-model version " + std::to_string(version) +
             " (this build reads version " + std::to_string(kFormatVersion) +
             "; re-pack the model from text)");
  }
  expect(load_scalar<std::uint32_t>(bytes + 12) == kHeaderBytes,
         "unexpected header size");
  const auto section_count = load_scalar<std::uint32_t>(bytes + 16);
  const auto stored_crc = load_scalar<std::uint32_t>(bytes + 20);
  const auto stored_size = load_scalar<std::uint64_t>(bytes + 24);
  expect(stored_size == size, "header file size does not match the file");
  expect(section_count == kSectionCount, "unexpected section count");
  const std::size_t table_end =
      kHeaderBytes + std::size_t{section_count} * kSectionEntryBytes;
  expect(table_end <= size, "section table runs past the end of the file");

  if (verify == PackedVerify::kFull) {
    const std::uint32_t actual_crc =
        crc32(bytes + kHeaderBytes, size - kHeaderBytes);
    if (actual_crc != stored_crc) {
      fail(ModelIoError::Kind::kChecksumMismatch,
           "packed-model checksum mismatch in '" + path + "'");
    }
  }

  bool present[kSectionCount] = {};
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint8_t* entry = bytes + kHeaderBytes + i * kSectionEntryBytes;
    const auto id = load_scalar<std::uint32_t>(entry);
    const auto offset = load_scalar<std::uint64_t>(entry + 8);
    const auto length = load_scalar<std::uint64_t>(entry + 16);
    expect(id >= 1 && id <= kSectionCount, "unknown section id");
    expect(!present[id - 1], "duplicate section id");
    present[id - 1] = true;
    expect(offset % kPayloadAlignment == 0, "misaligned section offset");
    expect(offset >= table_end, "section overlaps the header");
    expect(offset <= size && length <= size - offset,
           "section runs past the end of the file");
    file.sections[id - 1] =
        SectionReader{bytes + offset, length, kSectionNames[id - 1]};
  }
  return file;
}

// Pre-order node reader mirroring pack_module.
struct NodeReader {
  SectionReader& nodes;
  SectionReader& leaf_inputs;
  SectionReader& mat_weights;
  SectionReader& tables;
  PackedVerify verify;

  BitVector read_table(std::size_t arity) {
    BitVector table(std::size_t{1} << arity);
    const std::size_t n_words = table.word_count();
    std::memcpy(table.words(), tables.take(n_words, sizeof(std::uint64_t)),
                n_words * sizeof(std::uint64_t));
    const std::uint64_t last = table.words()[n_words - 1];
    expect(last == (last & BitVector::tail_word_mask(table.size())),
           "table word has bits past the table size");
    return table;
  }

  // `levels` is how many internal-node levels may still follow.
  RincModule load_node(std::size_t levels) {
    const auto kind = nodes.next<std::uint32_t>();
    const auto fanin = nodes.next<std::uint32_t>();
    if (kind == 0) {
      expect(fanin >= 1 && fanin <= 16, "bad leaf arity");
      std::vector<std::size_t> inputs(fanin);
      for (std::size_t& input : inputs) {
        const auto index = leaf_inputs.next<std::uint64_t>();
        expect(index <= (std::uint64_t{1} << 32),
               "leaf input feature index implausibly large");
        input = static_cast<std::size_t>(index);
      }
      return RincModule::make_leaf(Lut(std::move(inputs), read_table(fanin)));
    }
    expect(kind == 1, "bad node kind");
    expect(levels > 0, "module tree deeper than its RINC levels");
    expect(fanin >= 1 && fanin <= 20, "bad node fanin");
    std::vector<double> weights(fanin);
    for (double& weight : weights) {
      weight = std::bit_cast<double>(mat_weights.next<std::uint64_t>());
    }
    BitVector table = read_table(fanin);
    std::vector<RincModule> children;
    children.reserve(fanin);
    for (std::size_t c = 0; c < fanin; ++c) {
      children.push_back(load_node(levels - 1));
      expect(children.back().level() == children.front().level(),
             "node children at mixed RINC levels");
    }
    MatModule mat(std::move(weights));
    // The stored MAT table must be the table the weights imply — eval reads
    // the table while retrain/export read the weights, and the two must
    // never diverge. Re-deriving every table is 2^fanin x fanin float work
    // per internal node, so it rides the kFull depth.
    if (verify == PackedVerify::kFull) {
      expect(table == mat.to_table(),
             "MAT table does not match the MAT weights");
    }
    return RincModule::make_internal(
        std::move(children), std::move(mat),
        Lut(std::vector<std::size_t>(fanin, 0), std::move(table)));
  }
};

// A parsed packed file: the classifier plus, for conv files, the conv
// front end.
struct ParsedPacked {
  PoetBin model;
  std::shared_ptr<const RincConvLayer> conv;  // null = dense model
};

ParsedPacked parse_packed(const std::string& path, PackedVerify verify) {
  PackedFile file = parse_container(path, verify);

  SectionReader& config_sec = file.section(kSecConfig);
  PoetBinConfig config;
  config.rinc.lut_inputs = config_sec.next<std::uint64_t>();
  config.rinc.levels = config_sec.next<std::uint64_t>();
  config.rinc.total_dts = config_sec.next<std::uint64_t>();
  config.n_classes = config_sec.next<std::uint64_t>();
  const auto quant_bits = config_sec.next<std::uint64_t>();
  config_sec.expect_done();
  expect(config.rinc.lut_inputs >= 1 && config.rinc.lut_inputs <= 16,
         "config P out of range");
  expect(config.rinc.levels <= kMaxRincLevels,
         "config RINC levels out of range");
  expect(config.n_classes >= 1 && config.n_classes <= (std::size_t{1} << 20),
         "config class count out of range");
  expect(quant_bits >= 1 && quant_bits <= 24,
         "config quantizer bits out of range");
  config.output.quant_bits = static_cast<int>(quant_bits);

  SectionReader& quant_sec = file.section(kSecQuantizer);
  QuantizerParams quantizer;
  expect(quant_sec.next<std::uint64_t>() == quant_bits,
         "quantizer/config bit mismatch");
  quantizer.bits = static_cast<int>(quant_bits);
  quantizer.min_value = std::bit_cast<float>(quant_sec.next<std::uint32_t>());
  quantizer.max_value = std::bit_cast<float>(quant_sec.next<std::uint32_t>());
  quant_sec.expect_done();

  // Every geometry contract RincConvLayer::from_parts would abort on is
  // replicated as a typed error first — corrupt bytes must never abort a
  // loading process.
  SectionReader& conv_sec = file.section(kSecConvConfig);
  const bool has_conv = conv_sec.length != 0;
  BinShape3 conv_in_shape;
  RincConvConfig conv_config;
  if (has_conv) {
    conv_in_shape.channels = conv_sec.next<std::uint64_t>();
    conv_in_shape.height = conv_sec.next<std::uint64_t>();
    conv_in_shape.width = conv_sec.next<std::uint64_t>();
    conv_config.out_channels = conv_sec.next<std::uint64_t>();
    conv_config.kernel = conv_sec.next<std::uint64_t>();
    conv_config.stride = conv_sec.next<std::uint64_t>();
    conv_config.padding = conv_sec.next<std::uint64_t>();
    conv_sec.expect_done();
    const std::size_t dim_cap = std::size_t{1} << 16;
    expect(conv_in_shape.channels >= 1 && conv_in_shape.channels <= dim_cap &&
               conv_in_shape.height >= 1 && conv_in_shape.height <= dim_cap &&
               conv_in_shape.width >= 1 && conv_in_shape.width <= dim_cap,
           "conv input shape out of range");
    expect(conv_config.out_channels >= 1 &&
               conv_config.out_channels <= dim_cap,
           "conv output channel count out of range");
    expect(conv_config.kernel >= 1 && conv_config.kernel <= dim_cap,
           "conv kernel out of range");
    expect(conv_config.stride >= 1 && conv_config.stride <= dim_cap,
           "conv stride out of range");
    expect(conv_config.padding < conv_config.kernel,
           "conv padding must be smaller than the kernel");
    expect(conv_in_shape.height + 2 * conv_config.padding >=
                   conv_config.kernel &&
               conv_in_shape.width + 2 * conv_config.padding >=
                   conv_config.kernel,
           "conv kernel does not fit the padded frame");
  }

  // Node trees, pre-order: one per classifier module, then (for conv
  // files) one per conv output channel, all in the same shared sections.
  NodeReader reader{file.section(kSecNodes), file.section(kSecLeafInputs),
                    file.section(kSecMatWeights), file.section(kSecTables),
                    verify};
  const std::size_t p = config.rinc.lut_inputs;
  const std::size_t n_modules = config.n_classes * p;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < n_modules; ++m) {
    modules.push_back(reader.load_node(config.rinc.levels));
  }
  std::vector<RincModule> conv_modules;
  if (has_conv) {
    const std::size_t patch_bits =
        conv_in_shape.channels * conv_config.kernel * conv_config.kernel;
    for (std::size_t channel = 0; channel < conv_config.out_channels;
         ++channel) {
      conv_modules.push_back(reader.load_node(kMaxRincLevels));
      for (const std::size_t feature :
           conv_modules.back().distinct_features()) {
        expect(feature < patch_bits,
               "conv channel module references a feature beyond the patch "
               "width");
      }
    }
  }

  // Output layer.
  const std::size_t n_combos = std::size_t{1} << p;
  SectionReader& wiring_sec = file.section(kSecOutputWiring);
  SectionReader& weights_sec = file.section(kSecOutputWeights);
  SectionReader& codes_sec = file.section(kSecOutputCodes);
  std::vector<SparseOutputNeuron> output;
  for (std::size_t c = 0; c < config.n_classes; ++c) {
    SparseOutputNeuron& neuron = output.emplace_back();
    for (std::size_t i = 0; i < p; ++i) {
      const auto module_index = wiring_sec.next<std::uint64_t>();
      expect(module_index < n_modules,
             "output wiring references a missing module");
      neuron.input_modules.push_back(static_cast<std::size_t>(module_index));
    }
    for (std::size_t i = 0; i < p; ++i) {
      neuron.weights.push_back(
          std::bit_cast<float>(weights_sec.next<std::uint32_t>()));
    }
    neuron.bias = std::bit_cast<float>(weights_sec.next<std::uint32_t>());
    const std::uint8_t* codes = codes_sec.take(n_combos, sizeof(std::uint32_t));
    neuron.codes.resize(n_combos);
    std::memcpy(neuron.codes.data(), codes, n_combos * sizeof(std::uint32_t));
    for (const std::uint32_t code : neuron.codes) {
      expect(code < quantizer.levels(), "output code beyond quantizer range");
    }
  }
  for (const SectionReader& section : file.sections) section.expect_done();

  ParsedPacked parsed{
      PoetBin::from_parts(std::move(config), std::move(modules),
                          std::move(output), quantizer),
      nullptr};
  if (has_conv) {
    // Every from_parts contract was expect()-checked above, so this cannot
    // abort on file contents.
    parsed.conv = std::make_shared<const RincConvLayer>(
        RincConvLayer::from_parts(conv_in_shape, std::move(conv_config),
                                  std::move(conv_modules)));
    expect(parsed.model.n_features() <= parsed.conv->output_shape().flat(),
           "classifier wired beyond the conv output width");
  }
  return parsed;
}

// Shared writer body: the classifier sections, plus (when `conv` is
// non-null) the conv-config section and the conv channel trees appended to
// the shared node/table sections after the classifier trees.
IoStatus write_packed_common(const PoetBin& model, const RincConvLayer* conv,
                             const std::string& path) {
  if (!host_is_little_endian()) {
    return ModelIoError{ModelIoError::Kind::kWriteFailed,
                        "packed models are little-endian; this host is not"};
  }
  if (model.n_classes() == 0 ||
      model.n_modules() != model.n_classes() * model.lut_inputs()) {
    return ModelIoError{ModelIoError::Kind::kWriteFailed,
                        "refusing to pack an empty or inconsistent model"};
  }

  SectionBuffers sections;

  const RincModule& first = model.modules().front();
  for (const std::uint64_t scalar :
       {std::uint64_t{model.lut_inputs()}, std::uint64_t{first.level()},
        std::uint64_t{first.leaf_dt_count()}, std::uint64_t{model.n_classes()},
        static_cast<std::uint64_t>(model.quant_bits())}) {
    append_scalar(sections.of(kSecConfig), scalar);
  }

  const QuantizerParams& q = model.quantizer();
  append_scalar(sections.of(kSecQuantizer), static_cast<std::uint64_t>(q.bits));
  append_f32_bits(sections.of(kSecQuantizer), q.min_value);
  append_f32_bits(sections.of(kSecQuantizer), q.max_value);

  for (const RincModule& module : model.modules()) {
    pack_module(module, sections);
  }

  if (conv != nullptr) {
    const BinShape3 shape = conv->input_shape();
    const RincConvConfig& cc = conv->config();
    for (const std::uint64_t scalar :
         {shape.channels, shape.height, shape.width, cc.out_channels,
          cc.kernel, cc.stride, cc.padding}) {
      append_scalar(sections.of(kSecConvConfig), scalar);
    }
    for (const RincModule& module : conv->channel_modules()) {
      pack_module(module, sections);
    }
  }

  for (const SparseOutputNeuron& neuron : model.output_neurons()) {
    for (const std::size_t module_index : neuron.input_modules) {
      append_scalar(sections.of(kSecOutputWiring),
                    static_cast<std::uint64_t>(module_index));
    }
    for (const float weight : neuron.weights) {
      append_f32_bits(sections.of(kSecOutputWeights), weight);
    }
    append_f32_bits(sections.of(kSecOutputWeights), neuron.bias);
    for (const std::uint32_t code : neuron.codes) {
      append_scalar(sections.of(kSecOutputCodes), code);
    }
  }

  // Lay the file out: header, section table, aligned payloads.
  std::vector<std::uint8_t> buffer(
      kHeaderBytes + kSectionCount * kSectionEntryBytes, 0);
  for (std::uint32_t id = 1; id <= kSectionCount; ++id) {
    while (buffer.size() % kPayloadAlignment != 0) buffer.push_back(0);
    const std::vector<std::uint8_t>& payload =
        sections.of(static_cast<SectionId>(id));
    const std::uint64_t offset = buffer.size();
    const std::uint64_t length = payload.size();
    std::uint8_t* entry =
        buffer.data() + kHeaderBytes + (id - 1) * kSectionEntryBytes;
    std::memcpy(entry, &id, sizeof(id));
    std::memcpy(entry + 8, &offset, sizeof(offset));
    std::memcpy(entry + 16, &length, sizeof(length));
    buffer.insert(buffer.end(), payload.begin(), payload.end());
  }

  std::memcpy(buffer.data(), kMagic, sizeof(kMagic));
  const std::uint32_t version = kFormatVersion;
  const std::uint32_t header_bytes = kHeaderBytes;
  const std::uint32_t section_count = kSectionCount;
  std::memcpy(buffer.data() + 8, &version, sizeof(version));
  std::memcpy(buffer.data() + 12, &header_bytes, sizeof(header_bytes));
  std::memcpy(buffer.data() + 16, &section_count, sizeof(section_count));
  const std::uint64_t file_size = buffer.size();
  std::memcpy(buffer.data() + 24, &file_size, sizeof(file_size));
  const std::uint32_t crc =
      crc32(buffer.data() + kHeaderBytes, buffer.size() - kHeaderBytes);
  std::memcpy(buffer.data() + 20, &crc, sizeof(crc));

  // Publish atomically: temp file + rename. A reader racing the push (a
  // serve --watch poll, a reload) opens either the complete old file or the
  // complete new one, never a torn half-write.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return ModelIoError{ModelIoError::Kind::kWriteFailed,
                        "cannot open '" + temp + "' for writing"};
  }
  out.write(reinterpret_cast<const char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
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

// Cheap text sniff for read_model_file_any: true when the file's first
// token is the conv text header.
bool is_text_conv_model_file(const std::string& path) {
  std::ifstream in(path);
  std::string token;
  return static_cast<bool>(in >> token) && token == "poetbin-conv-model";
}

}  // namespace

const char* model_format_name(ModelFormat format) {
  switch (format) {
    case ModelFormat::kText: return "text";
    case ModelFormat::kPacked: return "packed";
  }
  return "unknown";
}

IoStatus write_packed_model_file(const PoetBin& model,
                                 const std::string& path) {
  return write_packed_common(model, nullptr, path);
}

IoStatus write_packed_conv_model_file(const ConvModel& model,
                                      const std::string& path) {
  if (model.conv.channel_modules().empty() ||
      model.conv.channel_modules().size() !=
          model.conv.config().out_channels) {
    return ModelIoError{ModelIoError::Kind::kWriteFailed,
                        "refusing to pack an empty or inconsistent conv "
                        "layer"};
  }
  if (model.classifier.n_features() > model.conv.output_shape().flat()) {
    return ModelIoError{ModelIoError::Kind::kWriteFailed,
                        "refusing to pack a conv model whose classifier is "
                        "wired beyond the conv output width"};
  }
  return write_packed_common(model.classifier, &model.conv, path);
}

IoResult<PoetBin> read_packed_model_file(const std::string& path,
                                         PackedVerify verify) {
  try {
    ParsedPacked parsed = parse_packed(path, verify);
    if (parsed.conv != nullptr) {
      return ModelIoError{
          ModelIoError::Kind::kIncompatibleModel,
          path + ": packed file holds a convolutional model; load it "
                 "through read_model_file_any"};
    }
    return std::move(parsed.model);
  } catch (const PackFailure& failure) {
    return ModelIoError{failure.error.kind,
                        path + ": " + failure.error.message};
  }
}

bool is_packed_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char head[sizeof(kMagic)] = {};
  if (!in.read(head, sizeof(head))) return false;
  return std::memcmp(head, kMagic, sizeof(kMagic)) == 0;
}

IoResult<LoadedModel> read_model_file_any(const std::string& path,
                                          PackedVerify verify) {
  if (is_packed_model_file(path)) {
    try {
      ParsedPacked parsed = parse_packed(path, verify);
      return LoadedModel{std::move(parsed.model), ModelFormat::kPacked,
                         std::move(parsed.conv)};
    } catch (const PackFailure& failure) {
      return ModelIoError{failure.error.kind,
                          path + ": " + failure.error.message};
    }
  }
  if (is_text_conv_model_file(path)) {
    IoResult<ConvModel> conv = read_conv_model_file(path);
    if (!conv.ok()) return conv.error();
    ConvModel model = std::move(conv).value();
    return LoadedModel{
        std::move(model.classifier), ModelFormat::kText,
        std::make_shared<const RincConvLayer>(std::move(model.conv))};
  }
  IoResult<PoetBin> text = read_model_file(path);
  if (!text.ok()) return text.error();
  return LoadedModel{std::move(text).value(), ModelFormat::kText, nullptr};
}

}  // namespace poetbin
