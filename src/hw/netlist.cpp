#include "hw/netlist.h"

#include <algorithm>

#include "util/word_backend.h"

namespace poetbin {

std::size_t Netlist::add_input(std::size_t input_index, std::string name) {
  POETBIN_CHECK_MSG(n_inputs_ == nodes_.size(),
                    "all primary inputs must be added before any LUT");
  NetlistNode node;
  node.kind = NetlistNode::Kind::kInput;
  node.input_index = input_index;
  node.name = std::move(name);
  nodes_.push_back(std::move(node));
  ++n_inputs_;
  return nodes_.size() - 1;
}

std::size_t Netlist::add_lut(std::vector<std::size_t> fanins, BitVector table,
                             std::string name) {
  POETBIN_CHECK_MSG(fanins.size() <= kMaxLutArity,
                    "LUT fanin exceeds kMaxLutArity");
  POETBIN_CHECK(table.size() == (std::size_t{1} << fanins.size()));
  for (const auto f : fanins) {
    POETBIN_CHECK_MSG(f < nodes_.size(), "fanin must reference an earlier node");
  }
  NetlistNode node;
  node.kind = NetlistNode::Kind::kLut;
  node.fanins = std::move(fanins);
  node.table = std::move(table);
  node.name = std::move(name);
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

void Netlist::mark_output(std::size_t node_id) {
  POETBIN_CHECK(node_id < nodes_.size());
  outputs_.push_back(node_id);
}

std::size_t Netlist::depth() const {
  std::vector<std::size_t> level(nodes_.size(), 0);
  std::size_t deepest = 0;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const NetlistNode& node = nodes_[id];
    if (node.kind == NetlistNode::Kind::kInput) continue;
    std::size_t max_fanin_level = 0;
    for (const auto f : node.fanins) {
      max_fanin_level = std::max(max_fanin_level, level[f]);
    }
    level[id] = max_fanin_level + 1;
    deepest = std::max(deepest, level[id]);
  }
  return deepest;
}

std::map<std::size_t, std::size_t> Netlist::arity_histogram() const {
  std::map<std::size_t, std::size_t> histogram;
  for (const auto& node : nodes_) {
    if (node.kind == NetlistNode::Kind::kLut) ++histogram[node.fanins.size()];
  }
  return histogram;
}

std::vector<bool> Netlist::simulate(const BitVector& input_bits) const {
  std::vector<bool> values(nodes_.size(), false);
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const NetlistNode& node = nodes_[id];
    if (node.kind == NetlistNode::Kind::kInput) {
      POETBIN_CHECK(node.input_index < input_bits.size());
      values[id] = input_bits.get(node.input_index);
    } else {
      std::size_t address = 0;
      for (std::size_t j = 0; j < node.fanins.size(); ++j) {
        if (values[node.fanins[j]]) address |= std::size_t{1} << j;
      }
      values[id] = node.table.get(address);
    }
  }
  return values;
}

std::vector<BitVector> Netlist::simulate_dataset(const BitMatrix& features) const {
  const std::size_t n = features.rows();
  std::vector<BitVector> values(nodes_.size());
  std::vector<const std::uint64_t*> fanin_words;
  const std::size_t n_words = (n + 63) / 64;

  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const NetlistNode& node = nodes_[id];
    if (node.kind == NetlistNode::Kind::kInput) {
      POETBIN_CHECK(node.input_index < features.cols());
      values[id] = features.column(node.input_index);
      continue;
    }
    values[id] = BitVector(n);
    fanin_words.clear();
    for (const auto fanin : node.fanins) {
      fanin_words.push_back(values[fanin].words());
    }
    std::uint64_t* out = values[id].words();
    // Address bit j is fanins[j], the Lut convention lut_reduce reads.
    word_ops().lut_reduce(node.table.words(), node.fanins.size(),
                          fanin_words.data(), /*base=*/0, 0, n_words, out);
    // Mask the tail so popcounts on node columns stay meaningful.
    values[id].mask_tail_word();
  }
  return values;
}

std::vector<BitVector> Netlist::simulate_dataset_outputs(
    const BitMatrix& features) const {
  const std::vector<BitVector> values = simulate_dataset(features);
  std::vector<BitVector> out;
  out.reserve(outputs_.size());
  // Copy, not move: the same node may be marked as an output repeatedly.
  for (const auto id : outputs_) out.push_back(values[id]);
  return out;
}

std::vector<bool> Netlist::simulate_outputs(const BitVector& input_bits) const {
  const std::vector<bool> values = simulate(input_bits);
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (const auto id : outputs_) out.push_back(values[id]);
  return out;
}

}  // namespace poetbin
