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

// One LUT of the RINC bank, in pre-order over the modules: its level
// (0 = leaf), its index among that level's LUTs, and its subtree's size,
// so its children follow it at item + 1, item + 1 + size, ...
struct Item {
  const Lut* lut = nullptr;
  std::uint32_t level = 0;
  std::uint32_t pos = 0;
  std::uint32_t size = 1;
};

void visit(const RincModule& module, std::vector<Item>& items,
           std::vector<std::uint32_t>& counts) {
  const std::size_t level = module.level();
  if (counts.size() <= level) counts.resize(level + 1, 0);
  items.push_back({module.is_leaf() ? &module.leaf_lut() : &module.mat_lut(),
                   static_cast<std::uint32_t>(level), counts[level]++,
                   static_cast<std::uint32_t>(module.lut_count())});
  for (const RincModule& child : module.children()) {
    visit(child, items, counts);
  }
}

// Lays out one stage's address bytes in the program's words: each added
// LUT takes ceil(arity / 8) bytes, address bit j in bit j % 8 of its byte
// j / 8. Slots no address bit uses read byte 0 (so a stage with any slot
// reads a source of at least one byte); the LUT's mask drops them.
struct StageWriter {
  std::uint64_t* index = nullptr;     // n_groups x 64 source byte indices,
                                      // two 32-bit halves per (zeroed) word
  std::uint8_t* select = nullptr;     // n_groups x 64 bit selectors
  std::uint64_t* records = nullptr;   // two per LUT, or null
  std::size_t n_bytes = 0;
  std::size_t n_luts = 0;

  // `source(j)` is the source bit of address bit j; `byte_of` maps it to
  // the byte index the gather reads.
  template <class SourceBit, class ByteOf>
  void add(std::size_t lut_arity, std::uint64_t table_at, SourceBit source,
           ByteOf byte_of) {
    const std::size_t first = n_bytes;
    n_bytes += (lut_arity + 7) / 8;
    for (std::size_t j = 0; j < lut_arity; ++j) {
      const std::size_t bit = source(j);
      const std::size_t slot = first * 8 + j;
      index[slot / 2] |= std::uint64_t{static_cast<std::uint32_t>(byte_of(bit))}
                         << (32 * (slot % 2));
      select[slot] = static_cast<std::uint8_t>((slot % 8) * 8 + bit % 8);
    }
    if (records != nullptr) {
      records[2 * n_luts] = (std::uint64_t{first} << 6) | lut_arity;
      records[2 * n_luts + 1] = table_at;
    }
    ++n_luts;
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

// An upper bound on words_, so compile allocates once: per LUT two record
// words and five words of gather arrays per address byte (8 uint32
// indices, 8 selectors), per stage up to 7 padding bytes, the code tables
// and the staged byte list.
std::size_t word_bound(const std::vector<Item>& items,
                       const std::vector<SparseOutputNeuron>& output,
                       std::size_t n_stages, std::size_t n_staged) {
  auto lut_words = [](std::size_t arity) { return 2 + 5 * ((arity + 7) / 8); };
  std::size_t bound = n_staged + (n_stages + 1) * 5 * 7;
  for (const Item& item : items) bound += lut_words(item.lut->arity());
  for (const SparseOutputNeuron& neuron : output) {
    bound += lut_words(neuron.input_modules.size()) +
             (neuron.codes.size() * sizeof(std::uint32_t) + 7) / 8;
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

void TableLayout::count(std::size_t level, std::size_t arity) {
  if (levels_.size() <= level) levels_.resize(level + 1);
  Level& l = levels_[level];
  if (l.n == 0) {
    l.arity = arity;
  } else if (arity != l.arity) {
    l.mixed = true;
  }
  if (arity < 1 || arity > 8) l.mixed = true;
  l.n += 1;
  l.words += BitVector::words_needed(std::size_t{1} << arity);
}

std::size_t TableLayout::finish() {
  std::size_t at = 0;
  for (Level& l : levels_) {
    l.base = at;
    l.cursor = 0;
    at += l.mixed ? l.words
                  : BitVector::words_needed(std::size_t{1} << l.arity) *
                        stride(l);
  }
  return at;
}

TableLayout::Slot TableLayout::place(std::size_t level, std::size_t arity) {
  Level& l = levels_[level];
  if (!l.mixed) return {l.base + l.cursor++, stride(l)};
  const Slot slot{l.base + l.cursor, 1};
  l.cursor += BitVector::words_needed(std::size_t{1} << arity);
  return slot;
}

bool TableLayout::padding_is_zero(const std::uint64_t* image) const {
  for (const Level& l : levels_) {
    if (l.mixed) continue;
    const std::size_t n_planes =
        BitVector::words_needed(std::size_t{1} << l.arity);
    for (std::size_t j = 0; j < n_planes; ++j) {
      for (std::size_t t = l.n; t < stride(l); ++t) {
        if (image[l.base + j * stride(l) + t] != 0) return false;
      }
    }
  }
  return true;
}

GatherProgram GatherProgram::compile(
    const std::vector<RincModule>& modules,
    const std::vector<SparseOutputNeuron>& output, const TableImage* adopt) {
  GatherProgram program;
  WordVec& words = program.words_;

  std::vector<Item> items;
  std::vector<std::uint32_t> counts(1, 0);
  std::vector<std::uint32_t> tops;
  tops.reserve(modules.size());
  std::size_t n_items = 0;
  for (const RincModule& module : modules) n_items += module.lut_count();
  items.reserve(n_items);
  for (const RincModule& module : modules) {
    tops.push_back(static_cast<std::uint32_t>(items.size()));
    visit(module, items, counts);
  }
  const std::size_t n_levels = counts.size();

  // The table image is adopted when every table already sits at its
  // slot in it (the stage loop below checks as it places them).
  TableLayout layout;
  for (const Item& item : items) layout.count(item.level, item.lut->arity());
  const std::size_t image_words = layout.finish();
  bool in_place = adopt != nullptr && adopt->size == image_words;

  // Result bit of (level, pos) is base[level] + pos; bases are word-aligned.
  std::vector<std::size_t> base(n_levels + 1, 0);
  for (std::size_t s = 0; s < n_levels; ++s) {
    base[s + 1] = base[s] + (counts[s] + 63) / 64 * 64;
  }
  program.n_result_words_ = base.back() / 64;
  auto result_bit = [&](std::size_t item) {
    return base[items[item].level] + items[item].pos;
  };

  std::size_t max_feature = 0;
  bool any_feature = false;
  for (const Item& item : items) {
    if (item.level != 0) continue;
    for (const std::size_t f : item.lut->inputs()) {
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
    for (const Item& item : items) {
      if (item.level != 0) continue;
      for (const std::size_t f : item.lut->inputs()) staged.push_back(f / 8);
    }
    std::sort(staged.begin(), staged.end());
    staged.erase(std::unique(staged.begin(), staged.end()), staged.end());
  }
  words.reserve(word_bound(items, output, n_levels, staged.size()));
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

  // Appends a stage of `n_bytes` address bytes: its index array (zero),
  // its select array (each slot's lane bits, the unused slots' whole
  // selector) and, unless it is uniform, room for its per-LUT records.
  auto open_stage = [&](Stage& stage, std::size_t n_bytes,
                        std::size_t n_luts) {
    stage.n_groups = (n_bytes + 7) / 8;
    stage.n_luts = n_luts;
    stage.index_at = words.size();
    stage.select_at = stage.index_at + stage.n_groups * 32;
    stage.records_at = stage.select_at + stage.n_groups * 8;
    words.resize(
        stage.records_at + (stage.uniform_arity == 0 ? 2 * n_luts : 0), 0);
    // Byte k of every select word is k * 8: lane k, bit 0.
    std::fill_n(words.data() + stage.select_at, stage.n_groups * 8,
                std::uint64_t{0x3830282018100800});
    program.max_groups_ = std::max(program.max_groups_, stage.n_groups);
    StageWriter writer;
    writer.index = words.data() + stage.index_at;
    writer.select =
        reinterpret_cast<std::uint8_t*>(words.data() + stage.select_at);
    if (stage.uniform_arity == 0) {
      writer.records = words.data() + stage.records_at;
    }
    return writer;
  };

  for (std::size_t s = 0; s < n_levels; ++s) {
    if (counts[s] == 0) continue;
    Stage stage;
    stage.reads_example = s == 0;
    stage.src_bytes = s == 0 ? (staged.empty() ? feature_bytes : staged.size())
                             : base[s] / 8;
    stage.result_word = base[s] / 64;
    stage.uniform_arity = layout.uniform_arity(s);
    stage.tables_at = layout.base(s);
    std::size_t n_bytes = 0;
    for (const Item& item : items) {
      if (item.level == s) n_bytes += (item.lut->arity() + 7) / 8;
    }
    StageWriter writer = open_stage(stage, n_bytes, counts[s]);
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].level != s) continue;
      const Lut& lut = *items[i].lut;
      const TableLayout::Slot slot = layout.place(s, lut.arity());
      in_place = in_place && lut.table_data() == adopt->data + slot.at &&
                 (lut.word_count() <= 1 || lut.stride() == slot.stride);
      if (s == 0) {
        const auto inputs = lut.inputs();
        writer.add(inputs.size(), slot.at,
                   [&](std::size_t j) { return inputs[j]; }, example_byte);
        continue;
      }
      // A MAT's address bit c is its child c's result bit.
      std::size_t children[kMaxMatFanin];
      for (std::size_t c = 0, at = i + 1; c < lut.arity();
           at += items[at].size, ++c) {
        children[c] = at;
      }
      writer.add(lut.arity(), slot.at,
                 [&](std::size_t j) { return result_bit(children[j]); },
                 result_byte);
    }
    program.levels_.push_back(stage);
  }

  if (in_place) {
    program.tables_ = *adopt;
  } else {
    auto image = std::make_shared<WordVec>(image_words, 0);
    layout.finish();
    for (std::size_t s = 0; s < n_levels; ++s) {
      for (const Item& item : items) {
        if (item.level != s) continue;
        const TableLayout::Slot slot = layout.place(s, item.lut->arity());
        for (std::size_t j = 0; j < item.lut->word_count(); ++j) {
          (*image)[slot.at + j * slot.stride] = item.lut->table_word(j);
        }
      }
    }
    program.tables_ = {image, image->data(), image->size()};
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
  std::vector<std::size_t> code_at;
  code_at.reserve(output.size());
  std::size_t n_bytes = 0;
  for (const SparseOutputNeuron& neuron : output) {
    code_at.push_back(
        append(words, neuron.codes.data(), neuron.codes.size()) * 8);
    n_bytes += (neuron.input_modules.size() + 7) / 8;
  }
  StageWriter writer = open_stage(out, n_bytes, output.size());
  for (std::size_t c = 0; c < output.size(); ++c) {
    const SparseOutputNeuron& neuron = output[c];
    writer.add(neuron.input_modules.size(), code_at[c],
               [&](std::size_t j) {
                 return result_bit(tops[neuron.input_modules[j]]);
               },
               result_byte);
  }
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
  const std::uint64_t* tables = tables_.data;
  const std::size_t n = stage.n_luts;
  if (stage.uniform_arity != 0) {
    ops.lut_lookup(address, tables + stage.tables_at, stage.uniform_arity, n,
                   out);
    return;
  }
  const std::uint64_t* records = words_.data() + stage.records_at;
  std::uint64_t acc = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::uint64_t a = address_of(address, records[2 * t]);
    const std::uint64_t* table = tables + records[2 * t + 1];
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
