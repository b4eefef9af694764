#include "core/gather_program.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "core/poetbin.h"
#include "util/word_backend.h"

namespace poetbin {

// Example bytes are read straight out of BitVector words, and address
// bytes out of gathered words: both assume the little-endian byte order
// of every target the library builds for.
static_assert(std::endian::native == std::endian::little);

namespace {

// Level 0 reads examples of up to this many bytes in place, by 32-bit byte
// index. Wider ones stage the bytes the model reads, so no index is ever
// narrowed; the bound keeps that path reachable with a 64 KiB example.
constexpr std::size_t kDirectBytes = std::size_t{1} << 16;

// A LUT's position in the hierarchy: its level (0 = leaf) and its index
// among that level's LUTs.
struct Ref {
  std::size_t level = 0;
  std::size_t pos = 0;
};

struct Node {
  const Lut* lut = nullptr;
  std::vector<Ref> children;  // MAT inputs, in address-bit order

  std::size_t arity() const { return lut->arity(); }
};

// The arity every item shares when it is 1..8, else 0.
template <class Items, class ArityOf>
std::size_t uniform_arity(const Items& items, ArityOf arity_of) {
  if (items.empty()) return 0;
  const std::size_t arity = arity_of(items.front());
  if (arity < 1 || arity > 8) return 0;
  for (const auto& item : items) {
    if (arity_of(item) != arity) return 0;
  }
  return arity;
}

Ref visit(const RincModule& module, std::vector<std::vector<Node>>& levels) {
  if (module.is_leaf()) {
    levels[0].push_back(Node{&module.leaf_lut(), {}});
    return {0, levels[0].size() - 1};
  }
  Node node{&module.mat_lut(), {}};
  node.children.reserve(module.children().size());
  std::size_t level = 1;
  for (const RincModule& child : module.children()) {
    node.children.push_back(visit(child, levels));
    level = std::max(level, node.children.back().level + 1);
  }
  if (levels.size() <= level) levels.resize(level + 1);
  levels[level].push_back(std::move(node));
  return {level, levels[level].size() - 1};
}

// Lays out one stage's address bytes: each added LUT takes ceil(arity / 8)
// bytes, address bit j in bit j % 8 of its byte j / 8. Slots no address
// bit uses read byte 0 (so a stage with any slot reads a source of at
// least one byte); the LUT's mask drops them.
struct StageLayout {
  std::vector<std::uint32_t> index;
  std::vector<std::uint8_t> select;
  std::vector<std::uint64_t> records;
  std::size_t n_bytes = 0;

  explicit StageLayout(std::size_t n_luts) {
    index.reserve(8 * n_luts);
    select.reserve(8 * n_luts);
    records.reserve(2 * n_luts);
  }

  // `source(j)` is the source bit of address bit j; `byte_of` maps it to
  // the byte index the gather reads.
  template <class SourceBit, class ByteOf>
  void add(std::size_t lut_arity, std::uint64_t table_at, SourceBit source,
           ByteOf byte_of) {
    const std::size_t first = n_bytes;
    pad_to(first + (lut_arity + 7) / 8);
    for (std::size_t j = 0; j < lut_arity; ++j) {
      const std::size_t bit = source(j);
      const std::size_t slot = first * 8 + j;
      index[slot] = static_cast<std::uint32_t>(byte_of(bit));
      select[slot] = static_cast<std::uint8_t>((slot % 8) * 8 + bit % 8);
    }
    records.push_back((std::uint64_t{first} << 6) | lut_arity);
    records.push_back(table_at);
  }

  void pad_to(std::size_t bytes) {
    for (std::size_t slot = n_bytes * 8; slot < bytes * 8; ++slot) {
      index.push_back(0);
      select.push_back(static_cast<std::uint8_t>((slot % 8) * 8));
    }
    n_bytes = bytes;
  }
};

template <class T>
std::size_t append(WordVec& words, const T* data, std::size_t count) {
  const std::size_t at = words.size();
  if constexpr (sizeof(T) == sizeof(std::uint64_t)) {
    words.insert(words.end(), data, data + count);
  } else {
    words.resize(at + (count * sizeof(T) + 7) / 8, 0);
    if (count > 0) std::memcpy(words.data() + at, data, count * sizeof(T));
  }
  return at;
}

// An upper bound on the program's words, so compile allocates once: every
// table and code table, plus per LUT two record words and five words of
// gather arrays per address byte (8 uint32 indices, 8 selectors), per
// stage up to 7 padding bytes and 7 padding LUTs of uniform planes, and
// the staged byte list.
std::size_t word_bound(const std::vector<std::vector<Node>>& levels,
                       const std::vector<SparseOutputNeuron>& output,
                       std::size_t n_staged) {
  auto lut_words = [](std::size_t arity, std::size_t table_words) {
    return table_words + 2 + 5 * ((arity + 7) / 8);
  };
  std::size_t bound = n_staged + (levels.size() + 1) * (5 * 7 + 7 * 4);
  for (const std::vector<Node>& nodes : levels) {
    for (const Node& node : nodes) {
      bound += lut_words(node.arity(), node.lut->table().word_count());
    }
  }
  for (const SparseOutputNeuron& neuron : output) {
    bound += lut_words(neuron.input_modules.size(),
                       (neuron.codes.size() * sizeof(std::uint32_t) + 7) / 8);
  }
  return bound;
}

// The stage's address of the LUT whose record word is `record`.
inline std::uint64_t address_of(const std::uint8_t* address,
                                std::uint64_t record) {
  std::uint64_t raw;
  std::memcpy(&raw, address + (record >> 6), sizeof raw);
  return raw & ((std::uint64_t{1} << (record & 63)) - 1);
}

}  // namespace

GatherProgram GatherProgram::compile(
    const std::vector<RincModule>& modules,
    const std::vector<SparseOutputNeuron>& output) {
  GatherProgram program;
  WordVec& words = program.words_;

  std::vector<std::vector<Node>> levels(1);
  std::vector<Ref> tops;
  tops.reserve(modules.size());
  for (const RincModule& module : modules) {
    tops.push_back(visit(module, levels));
  }

  // Result bit of (level, pos) is base[level] + pos; bases are word-aligned.
  std::vector<std::size_t> base(levels.size() + 1, 0);
  for (std::size_t s = 0; s < levels.size(); ++s) {
    base[s + 1] = base[s] + (levels[s].size() + 63) / 64 * 64;
  }
  program.n_result_words_ = base.back() / 64;
  auto result_bit = [&](Ref ref) { return base[ref.level] + ref.pos; };

  std::size_t max_feature = 0;
  bool any_feature = false;
  for (const Node& leaf : levels[0]) {
    for (const std::size_t f : leaf.lut->inputs()) {
      max_feature = std::max(max_feature, f);
      any_feature = true;
    }
  }
  // Saturating: a loaded index of SIZE_MAX must keep failing every width
  // check rather than wrap the width to 0.
  if (any_feature) {
    program.n_features_ =
        max_feature + (max_feature < std::numeric_limits<std::size_t>::max());
  }

  // Level 0 reads the example in place when it is narrow enough, else the
  // distinct bytes it needs, staged in ascending order.
  const std::size_t feature_bytes =
      program.n_features_ / 8 + (program.n_features_ % 8 != 0);
  std::vector<std::uint64_t> staged;
  if (feature_bytes > kDirectBytes) {
    for (const Node& leaf : levels[0]) {
      for (const std::size_t f : leaf.lut->inputs()) staged.push_back(f / 8);
    }
    std::sort(staged.begin(), staged.end());
    staged.erase(std::unique(staged.begin(), staged.end()), staged.end());
  }
  words.reserve(word_bound(levels, output, staged.size()));
  if (!staged.empty()) {
    program.n_staged_ = staged.size();
    program.staged_at_ = append(words, staged.data(), staged.size());
  }
  auto example_byte = [&](std::size_t feature) -> std::size_t {
    if (staged.empty()) return feature / 8;
    return static_cast<std::size_t>(
        std::lower_bound(staged.begin(), staged.end(), feature / 8) -
        staged.begin());
  };
  auto result_byte = [](std::size_t bit) { return bit / 8; };

  // Appends the stage's gather arrays; a non-uniform stage also gets its
  // per-LUT records.
  auto finish = [&](StageLayout& layout, Stage& stage) {
    stage.n_groups = (layout.n_bytes + 7) / 8;
    layout.pad_to(stage.n_groups * 8);
    stage.index_at = append(words, layout.index.data(), layout.index.size());
    stage.select_at =
        append(words, layout.select.data(), layout.select.size());
    stage.n_luts = layout.records.size() / 2;
    if (stage.uniform_arity == 0) {
      stage.records_at =
          append(words, layout.records.data(), layout.records.size());
    }
    program.max_groups_ = std::max(program.max_groups_, stage.n_groups);
  };

  for (std::size_t s = 0; s < levels.size(); ++s) {
    const std::vector<Node>& nodes = levels[s];
    if (nodes.empty()) continue;
    Stage stage;
    stage.reads_example = s == 0;
    stage.src_bytes = s == 0 ? (staged.empty() ? feature_bytes : staged.size())
                             : base[s] / 8;
    stage.result_word = base[s] / 64;
    stage.uniform_arity =
        uniform_arity(nodes, [](const Node& node) { return node.arity(); });
    if (stage.uniform_arity != 0) {
      // Plane-major, each plane padded with zero words to a multiple of 8.
      const std::size_t n_planes =
          BitVector::words_needed(std::size_t{1} << stage.uniform_arity);
      const std::size_t stride = (nodes.size() + 7) / 8 * 8;
      stage.tables_at = words.size();
      words.resize(words.size() + n_planes * stride, 0);
      for (std::size_t t = 0; t < nodes.size(); ++t) {
        for (std::size_t j = 0; j < n_planes; ++j) {
          words[stage.tables_at + j * stride + t] =
              nodes[t].lut->table().words()[j];
        }
      }
    }
    StageLayout layout(nodes.size());
    for (const Node& node : nodes) {
      const BitVector& table = node.lut->table();
      const std::size_t table_at =
          stage.uniform_arity != 0
              ? 0
              : append(words, table.words(), table.word_count());
      if (s == 0) {
        const auto& inputs = node.lut->inputs();
        layout.add(inputs.size(), table_at,
                   [&](std::size_t j) { return inputs[j]; }, example_byte);
      } else {
        layout.add(node.children.size(), table_at,
                   [&](std::size_t j) { return result_bit(node.children[j]); },
                   result_byte);
      }
    }
    finish(layout, stage);
    program.levels_.push_back(stage);
  }

  // Code tables of 2^P uint32s fill whole words once P >= 1, so a uniform
  // output stage's tables sit back to back from uint32 index tables_at.
  Stage& out = program.output_;
  out.src_bytes = program.n_result_words_ * 8;
  out.uniform_arity =
      uniform_arity(output, [](const SparseOutputNeuron& neuron) {
        return neuron.input_modules.size();
      });
  out.tables_at = words.size() * 2;
  StageLayout layout(output.size());
  for (const SparseOutputNeuron& neuron : output) {
    const std::size_t at =
        append(words, neuron.codes.data(), neuron.codes.size()) * 8;
    layout.add(neuron.input_modules.size(), at,
               [&](std::size_t j) {
                 return result_bit(tops[neuron.input_modules[j]]);
               },
               result_byte);
  }
  finish(layout, out);
  return program;
}

const std::uint8_t* GatherProgram::gather(const WordOps& ops,
                                          const Stage& stage,
                                          const std::uint8_t* src,
                                          std::uint64_t* address) const {
  ops.gather_bits(
      src, stage.src_bytes,
      words_.data() + stage.index_at,
      reinterpret_cast<const std::uint8_t*>(words_.data() + stage.select_at),
      stage.n_groups, address);
  return reinterpret_cast<const std::uint8_t*>(address);
}

int GatherProgram::predict(const BitVector& example) const {
  if (output_.n_luts == 0) return 0;
  // Reused per thread; one extra address word keeps the 8-byte address
  // reads of a stage's last LUTs inside the buffer.
  struct Scratch {
    WordVec results, address;
    std::vector<std::uint8_t> staged;
  };
  thread_local Scratch scratch;
  scratch.results.resize(n_result_words_);
  scratch.address.resize(max_groups_ + 1);

  const WordOps& ops = word_ops();
  const std::uint64_t* words = words_.data();
  const auto* example_bytes =
      reinterpret_cast<const std::uint8_t*>(example.words());
  const std::uint8_t* level0 = example_bytes;
  if (n_staged_ > 0) {
    scratch.staged.resize(n_staged_);
    for (std::size_t i = 0; i < n_staged_; ++i) {
      scratch.staged[i] = example_bytes[words[staged_at_ + i]];
    }
    level0 = scratch.staged.data();
  }
  const auto* result_bytes =
      reinterpret_cast<const std::uint8_t*>(scratch.results.data());

  for (const Stage& stage : levels_) {
    read_luts(ops, stage,
              gather(ops, stage, stage.reads_example ? level0 : result_bytes,
                     scratch.address.data()),
              scratch.results.data() + stage.result_word);
  }
  return argmax_codes(
      gather(ops, output_, result_bytes, scratch.address.data()));
}

void GatherProgram::read_luts(const WordOps& ops, const Stage& stage,
                              const std::uint8_t* address,
                              std::uint64_t* out) const {
  const std::uint64_t* words = words_.data();
  const std::size_t n = stage.n_luts;
  if (stage.uniform_arity != 0) {
    ops.lut_lookup(address, words + stage.tables_at, stage.uniform_arity, n,
                   out);
    return;
  }
  const std::uint64_t* records = words + stage.records_at;
  std::uint64_t acc = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint64_t a = address_of(address, records[2 * t]);
    const std::uint64_t* table = words + records[2 * t + 1];
    acc |= ((table[a >> 6] >> (a & 63)) & 1u) << (t & 63);
    if ((t & 63) == 63) {
      out[t >> 6] = acc;
      acc = 0;
    }
  }
  if ((n & 63) != 0) out[n >> 6] = acc;
}

int GatherProgram::argmax_codes(const std::uint8_t* address) const {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(words_.data());
  const std::size_t arity = output_.uniform_arity;
  const std::uint64_t* records = words_.data() + output_.records_at;
  int best_class = 0;
  std::uint32_t best_code = 0;
  for (std::size_t c = 0; c < output_.n_luts; ++c) {
    std::size_t at = 0;
    if (arity != 0) {
      const std::size_t a = address[c] & ((1u << arity) - 1);
      at = 4 * (output_.tables_at + (c << arity) + a);
    } else {
      at = records[2 * c + 1] + 4 * address_of(address, records[2 * c]);
    }
    std::uint32_t code;
    std::memcpy(&code, bytes + at, sizeof code);
    // Ties resolve to the lower class index, the comparator-tree rule.
    if (c == 0 || code > best_code) {
      best_code = code;
      best_class = static_cast<int>(c);
    }
  }
  return best_class;
}

}  // namespace poetbin
