#include "core/packed_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/gather_program.h"
#include "core/model_parts.h"
#include "dt/lut.h"
#include "util/bitvector.h"

namespace poetbin {

using model_io::expect;
using model_io::fail;

// Loaded Luts view the leaf-input section's u64s as size_t indices.
static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "the packed loader needs a 64-bit size_t");

namespace {

constexpr char kMagic[8] = {'P', 'o', 'E', 'T', 'B', 'i', 'N', 'P'};
constexpr std::uint32_t kFormatVersion = 5;
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
  kSecOutputWiring = 5,   // u64 module indices, nc x P
  kSecOutputWeights = 6,  // f32 bit patterns, nc x (P weights + bias)
  kSecOutputCodes = 7,    // u32 codes, nc x 2^P
  kSecTables = 8,         // the classifier's table image, then conv tables
  kSecConvConfig = 9,     // 7 u64 conv scalars; zero length = dense
};
constexpr std::uint32_t kSectionCount = 9;
constexpr const char* kSectionNames[kSectionCount] = {
    "config",        "quantizer",      "nodes",        "leaf-inputs",
    "output-wiring", "output-weights", "output-codes", "tables",
    "conv-config"};

// --- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320), slicing-by-8 ----------

// kCrcTables[0] is the bytewise table; kCrcTables[k][i] is the CRC of byte
// i followed by k zero bytes, so eight table reads fold eight bytes.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

// Bytes b[0..3] as a little-endian u32, on any host.
inline std::uint32_t le32(const std::uint8_t* b) {
  return std::uint32_t{b[0]} | std::uint32_t{b[1]} << 8 |
         std::uint32_t{b[2]} << 16 | std::uint32_t{b[3]} << 24;
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

void append_words(SectionBuffers& sections, const Lut& lut) {
  for (std::size_t j = 0; j < lut.word_count(); ++j) {
    append_scalar(sections.of(kSecTables), lut.table_word(j));
  }
}

void append_node_record(SectionBuffers& sections, std::uint32_t kind,
                        std::size_t fanin) {
  append_scalar(sections.of(kSecNodes), kind);
  append_scalar(sections.of(kSecNodes), static_cast<std::uint32_t>(fanin));
}

// The module's node and leaf-input records, pre-order. With `tables`, also
// each node's table words in the same order (the conv region; the
// classifier's tables go in as its program's image).
void pack_module(const RincModule& module, SectionBuffers& sections,
                 bool tables) {
  if (module.is_leaf()) {
    const Lut& lut = module.leaf_lut();
    append_node_record(sections, 0, lut.arity());
    for (const std::size_t input : lut.inputs()) {
      append_scalar(sections.of(kSecLeafInputs),
                    static_cast<std::uint64_t>(input));
    }
    if (tables) append_words(sections, lut);
    return;
  }
  append_node_record(sections, 1, module.children().size());
  if (tables) append_words(sections, module.mat_lut());
  for (const RincModule& child : module.children()) {
    pack_module(child, sections, tables);
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
    pack_module(module, sections, /*tables=*/false);
  }
  const TableImage& image = model.program().tables();
  for (std::size_t w = 0; w < image.size; ++w) {
    append_scalar(sections.of(kSecTables), image.data[w]);
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
      pack_module(module, sections, /*tables=*/true);
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
  const std::uint32_t crc = model_io::crc32(buffer.data() + kHeaderBytes,
                                            buffer.size() - kHeaderBytes);
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
             "; re-export the model with this build)");
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
      model_io::crc32(bytes + kHeaderBytes, size - kHeaderBytes) !=
          stored_crc) {
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

// model_io::decode_tree's source over the node and leaf-input sections, in
// the pre-order pack_module wrote them. Its Luts view the leaf inputs in
// place; place_tables gives them their tables, and the buffer's owner,
// once the tree is built.
struct PackedSource {
  Sections& sections;

  model_io::NodeRecord node() {
    const auto kind = sections[kSecNodes].next<std::uint32_t>();
    const auto fanin = sections[kSecNodes].next<std::uint32_t>();
    expect(kind <= 1, "bad node kind");
    return {kind == 0, fanin};
  }
  Lut leaf(std::size_t arity) {
    const auto* inputs = reinterpret_cast<const std::size_t*>(
        sections[kSecLeafInputs].take(arity, sizeof(std::uint64_t)));
    for (std::size_t j = 0; j < arity; ++j) model_io::leaf_input(inputs[j]);
    return Lut::view(nullptr, inputs, arity, nullptr, 1);
  }
  Lut mat_lut(std::size_t fanin) {
    return Lut::view(nullptr, kZeroInputs, fanin, nullptr, 1);
  }
};

// Points every node's Lut at its table: the classifier's nodes
// [0, n_classifier) in the program image's layout, the conv nodes after
// them back to back. The tables section must hold exactly those words,
// with zero padding words and zero bits past each table. Returns the
// classifier's image.
TableImage place_tables(RincTreeBuilder& builder, std::size_t n_classifier,
                        SectionReader& section,
                        const std::shared_ptr<const void>& owner) {
  TableLayout layout;
  std::size_t conv_words = 0;
  for (std::uint32_t i = 0; i < builder.size(); ++i) {
    const std::size_t arity = builder.lut(i).arity();
    if (i < n_classifier) {
      layout.count(builder.node(i).level, arity);
    } else {
      conv_words += BitVector::words_needed(std::size_t{1} << arity);
    }
  }
  const std::size_t image_words = layout.finish();
  expect(section.length == (image_words + conv_words) * 8,
         "tables section does not match the model's tables");
  const auto* words = reinterpret_cast<const std::uint64_t*>(
      section.take(image_words + conv_words, sizeof(std::uint64_t)));
  expect(layout.padding_is_zero(words), "nonzero table padding word");
  std::size_t conv_at = image_words;
  for (std::uint32_t i = 0; i < builder.size(); ++i) {
    Lut& lut = builder.lut(i);
    const std::size_t arity = lut.arity();
    TableLayout::Slot slot{conv_at, 1};
    if (i < n_classifier) {
      slot = layout.place(builder.node(i).level, arity);
    } else {
      conv_at += BitVector::words_needed(std::size_t{1} << arity);
    }
    const std::uint64_t first = words[slot.at];
    expect(first == (first & BitVector::tail_word_mask(std::size_t{1}
                                                        << arity)),
           "table word has bits past the table size");
    lut = Lut::view(owner, lut.inputs().data(), arity, words + slot.at,
                    slot.stride);
  }
  return {owner, words, image_words};
}

}  // namespace

namespace model_io {

bool has_packed_magic(const std::uint8_t* data, std::size_t size) {
  return size >= sizeof(kMagic) &&
         std::memcmp(data, kMagic, sizeof(kMagic)) == 0;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto& t = kCrcTables;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = le32(data) ^ crc;
    const std::uint32_t hi = le32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

ModelParts decode_packed(std::shared_ptr<const void> owner,
                         const std::uint8_t* data, std::size_t size,
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

  // Node trees, pre-order, into one tree: one per classifier module, then
  // (for conv files) one per conv output channel. The node records size
  // the tree up front, capped so unvalidated records cannot make the
  // loader reserve many times the file's size.
  RincTreeBuilder builder(
      std::min<std::uint64_t>(sections[kSecNodes].length / 8, 1u << 16));
  PackedSource source{sections};
  const std::size_t p = parts.config.rinc.lut_inputs;
  parts.modules.reserve(parts.config.n_classes * p);
  for (std::size_t m = 0; m < parts.config.n_classes * p; ++m) {
    parts.modules.push_back(builder.module(
        decode_tree(source, builder, parts.config.rinc.levels)));
  }
  const std::size_t n_classifier = builder.size();
  if (parts.conv) {
    for (std::size_t c = 0; c < parts.conv->config.out_channels; ++c) {
      parts.conv->modules.push_back(
          builder.module(decode_tree(source, builder, kMaxRincLevels)));
    }
  }
  parts.tables =
      place_tables(builder, n_classifier, sections[kSecTables], owner);

  const std::size_t n_combos = std::size_t{1} << p;
  parts.output.reserve(parts.config.n_classes);
  for (std::size_t c = 0; c < parts.config.n_classes; ++c) {
    SparseOutputNeuron& neuron = parts.output.emplace_back();
    neuron.input_modules.resize(p);
    for (std::size_t& module : neuron.input_modules) {
      module = static_cast<std::size_t>(
          sections[kSecOutputWiring].next<std::uint64_t>());
    }
    neuron.weights.resize(p);
    for (float& weight : neuron.weights) {
      weight = std::bit_cast<float>(
          sections[kSecOutputWeights].next<std::uint32_t>());
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
