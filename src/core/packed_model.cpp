#include "core/packed_model.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "boost/mat.h"
#include "core/model_parts.h"
#include "dt/lut.h"
#include "util/bitvector.h"

namespace poetbin {

using model_io::expect;
using model_io::fail;

namespace {

constexpr char kMagic[8] = {'P', 'o', 'E', 'T', 'B', 'i', 'N', 'P'};
constexpr std::uint32_t kFormatVersion = 3;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kSectionEntryBytes = 24;
constexpr std::size_t kPayloadAlignment = 64;

// Section ids. The set is closed; unknown ids are rejected so a file cannot
// smuggle payload the checksum "covers" but no one reads.
enum SectionId : std::uint32_t {
  kSecConfig = 1,         // 5 u64 scalars (see write_packed)
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

// Writes the classifier sections, plus (when `conv` is non-null) the
// conv-config section and the conv channel trees appended to the shared
// node/table sections after the classifier trees. The publish helper's
// decode refuses the bytes on a big-endian host.
IoStatus write_packed(const PoetBin& model, const RincConvLayer* conv,
                      const std::string& path) {
  SectionBuffers sections;

  const bool empty = model.modules().empty();
  for (const std::uint64_t scalar :
       {std::uint64_t{model.lut_inputs()},
        std::uint64_t{empty ? 0 : model.modules().front().level()},
        std::uint64_t{empty ? 0 : model.modules().front().leaf_dt_count()},
        std::uint64_t{model.n_classes()},
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
  return model_io::publish_model_file(
      path, std::string_view(reinterpret_cast<const char*>(buffer.data()),
                             buffer.size()));
}

// --- decoder ----------------------------------------------------------------

// One section's payload, consumed front to back by bounds-checked reads.
// Every section is written in the order the decoder reads it, so after the
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

struct Sections {
  SectionReader readers[kSectionCount];

  SectionReader& operator[](SectionId id) { return readers[id - 1]; }
};

// Header and section table; the payloads stay in the caller's buffer.
Sections parse_container(const std::uint8_t* bytes, std::size_t size,
                         PackedVerify verify) {
  // The format is little-endian by declaration; on the (currently
  // untargeted) big-endian host we reject files instead of byte-swapping.
  if (std::endian::native != std::endian::little) {
    fail(ModelIoError::Kind::kVersionMismatch,
         "packed models are little-endian; this host is not");
  }
  expect(size >= kHeaderBytes, "too small to hold a packed-model header");
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

  if (verify == PackedVerify::kFull &&
      crc32(bytes + kHeaderBytes, size - kHeaderBytes) != stored_crc) {
    fail(ModelIoError::Kind::kChecksumMismatch,
         "packed-model checksum mismatch");
  }

  Sections sections;
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
    sections.readers[id - 1] =
        SectionReader{bytes + offset, length, kSectionNames[id - 1]};
  }
  return sections;
}

// model_io::decode_tree's source over the node, leaf-input, MAT-weight and
// table sections, in the pre-order pack_module wrote them.
struct PackedSource {
  Sections& sections;
  PackedVerify verify;

  model_io::NodeRecord node() {
    const auto kind = sections[kSecNodes].next<std::uint32_t>();
    const auto fanin = sections[kSecNodes].next<std::uint32_t>();
    expect(kind <= 1, "bad node kind");
    return {kind == 0, fanin};
  }
  std::uint64_t leaf_input() {
    return sections[kSecLeafInputs].next<std::uint64_t>();
  }
  double weight() {
    return std::bit_cast<double>(
        sections[kSecMatWeights].next<std::uint64_t>());
  }
  BitVector table(std::size_t arity) {
    BitVector table(std::size_t{1} << arity);
    const std::size_t n_words = table.word_count();
    std::memcpy(table.words(),
                sections[kSecTables].take(n_words, sizeof(std::uint64_t)),
                n_words * sizeof(std::uint64_t));
    const std::uint64_t last = table.words()[n_words - 1];
    expect(last == (last & BitVector::tail_word_mask(table.size())),
           "table word has bits past the table size");
    return table;
  }
  Lut mat_lut(const MatModule& mat) {
    BitVector stored = table(mat.arity());
    // The stored MAT table must be the table the weights imply — eval reads
    // the table while retrain/export read the weights, and the two must
    // never diverge. Re-deriving every table is 2^fanin x fanin float work
    // per internal node, so it rides the kFull depth.
    if (verify == PackedVerify::kFull) {
      expect(stored == mat.to_table(),
             "MAT table does not match the MAT weights");
    }
    return Lut(std::vector<std::size_t>(mat.arity(), 0), std::move(stored));
  }
};

}  // namespace

namespace model_io {

bool has_packed_magic(const std::uint8_t* data, std::size_t size) {
  return size >= sizeof(kMagic) &&
         std::memcmp(data, kMagic, sizeof(kMagic)) == 0;
}

ModelParts decode_packed(const std::uint8_t* data, std::size_t size,
                         PackedVerify verify) {
  Sections sections = parse_container(data, size, verify);
  ModelParts parts;

  SectionReader& config = sections[kSecConfig];
  parts.config.rinc.lut_inputs = config.next<std::uint64_t>();
  parts.config.rinc.levels = config.next<std::uint64_t>();
  parts.config.rinc.total_dts = config.next<std::uint64_t>();
  parts.config.n_classes = config.next<std::uint64_t>();
  parts.quant_bits = config.next<std::uint64_t>();
  config.expect_done();

  SectionReader& quantizer = sections[kSecQuantizer];
  parts.quantizer_bits = quantizer.next<std::uint64_t>();
  for (float* bound : {&parts.quantizer.min_value, &parts.quantizer.max_value}) {
    *bound = std::bit_cast<float>(quantizer.next<std::uint32_t>());
  }
  quantizer.expect_done();

  SectionReader& conv = sections[kSecConvConfig];
  if (conv.length != 0) {
    ModelParts::Conv& c = parts.conv.emplace();
    for (std::size_t* field :
         {&c.in_shape.channels, &c.in_shape.height, &c.in_shape.width,
          &c.config.out_channels, &c.config.kernel, &c.config.stride,
          &c.config.padding}) {
      *field = conv.next<std::uint64_t>();
    }
    conv.expect_done();
  }
  check_header(parts);

  // Node trees, pre-order: one per classifier module, then (for conv
  // files) one per conv output channel, all in the same shared sections.
  PackedSource source{sections, verify};
  const std::size_t p = parts.config.rinc.lut_inputs;
  for (std::size_t m = 0; m < parts.config.n_classes * p; ++m) {
    parts.modules.push_back(decode_tree(source, parts.config.rinc.levels));
  }
  if (parts.conv) {
    for (std::size_t c = 0; c < parts.conv->config.out_channels; ++c) {
      parts.conv->modules.push_back(decode_tree(source, kMaxRincLevels));
    }
  }

  const std::size_t n_combos = std::size_t{1} << p;
  for (std::size_t c = 0; c < parts.config.n_classes; ++c) {
    SparseOutputNeuron& neuron = parts.output.emplace_back();
    for (std::size_t i = 0; i < p; ++i) {
      neuron.input_modules.push_back(static_cast<std::size_t>(
          sections[kSecOutputWiring].next<std::uint64_t>()));
    }
    for (std::size_t i = 0; i < p; ++i) {
      neuron.weights.push_back(std::bit_cast<float>(
          sections[kSecOutputWeights].next<std::uint32_t>()));
    }
    neuron.bias = std::bit_cast<float>(
        sections[kSecOutputWeights].next<std::uint32_t>());
    const std::uint8_t* codes =
        sections[kSecOutputCodes].take(n_combos, sizeof(std::uint32_t));
    neuron.codes.resize(n_combos);
    std::memcpy(neuron.codes.data(), codes, n_combos * sizeof(std::uint32_t));
  }
  for (const SectionReader& section : sections.readers) section.expect_done();
  return parts;
}

}  // namespace model_io

IoStatus write_packed_model_file(const PoetBin& model,
                                 const std::string& path) {
  return write_packed(model, nullptr, path);
}

IoStatus write_packed_conv_model_file(const ConvModel& model,
                                      const std::string& path) {
  return write_packed(model.classifier, &model.conv, path);
}

}  // namespace poetbin
