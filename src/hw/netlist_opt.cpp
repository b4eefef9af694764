#include "hw/netlist_opt.h"

#include <algorithm>
#include <optional>

#include "util/check.h"

namespace poetbin {

bool lut_input_removable(const BitVector& table, std::size_t input) {
  const std::size_t stride = std::size_t{1} << input;
  POETBIN_CHECK(stride < table.size());
  for (std::size_t address = 0; address < table.size(); ++address) {
    if ((address & stride) != 0) continue;  // visit each pair once
    if (table.get(address) != table.get(address | stride)) return false;
  }
  return true;
}

namespace {

// Drops address bit `input` from a table where that bit is removable.
BitVector drop_input(const BitVector& table, std::size_t input) {
  const std::size_t stride = std::size_t{1} << input;
  BitVector reduced(table.size() / 2);
  std::size_t write = 0;
  for (std::size_t address = 0; address < table.size(); ++address) {
    if ((address & stride) != 0) continue;
    reduced.set(write++, table.get(address));
  }
  return reduced;
}

// Specialises a table to fanin `input` being stuck at `value`.
BitVector specialize_input(const BitVector& table, std::size_t input,
                           bool value) {
  const std::size_t stride = std::size_t{1} << input;
  BitVector reduced(table.size() / 2);
  std::size_t write = 0;
  for (std::size_t address = 0; address < table.size(); ++address) {
    if (((address & stride) != 0) != value) continue;
    reduced.set(write++, table.get(address));
  }
  return reduced;
}

// How each original node maps into the optimized netlist.
struct NodeMapping {
  enum class Kind { kNode, kConstant };
  Kind kind = Kind::kNode;
  std::size_t node_id = 0;  // id in the NEW netlist (kNode)
  bool value = false;       // kConstant
};

// One sweep of the optimizer: drops the LUTs no output reaches, then folds
// constants, removable inputs and identity LUTs in topological order.
Netlist sweep(const Netlist& input, NetlistOptStats& stats) {
  // Pass 1: mark nodes reachable from the outputs (dead-code elimination
  // works backwards; node ids are topological so a reverse sweep suffices).
  std::vector<bool> live(input.n_nodes(), false);
  for (const auto output : input.outputs()) live[output] = true;
  for (std::size_t id = input.n_nodes(); id-- > 0;) {
    if (!live[id]) continue;
    const NetlistNode& node = input.node(id);
    for (const auto fanin : node.fanins) live[fanin] = true;
  }

  Netlist optimized;
  std::vector<NodeMapping> mapping(input.n_nodes());

  // Primary inputs are always preserved (the hardware pinout is fixed).
  for (std::size_t id = 0; id < input.n_nodes(); ++id) {
    const NetlistNode& node = input.node(id);
    if (node.kind != NetlistNode::Kind::kInput) continue;
    mapping[id] = {NodeMapping::Kind::kNode,
                   optimized.add_input(node.input_index, node.name), false};
  }

  // Constant nodes are created lazily and shared.
  std::optional<std::size_t> constant_node[2];
  auto get_constant = [&](bool value) {
    auto& slot = constant_node[value ? 1 : 0];
    if (!slot.has_value()) {
      BitVector table(1);
      if (value) table.set(0, true);
      slot = optimized.add_lut({}, table, value ? "const1" : "const0");
    }
    return *slot;
  };

  for (std::size_t id = 0; id < input.n_nodes(); ++id) {
    const NetlistNode& node = input.node(id);
    if (node.kind != NetlistNode::Kind::kLut) continue;
    if (!live[id]) {
      ++stats.dead_removed;
      continue;
    }

    // Resolve fanins through the mapping, folding constant fanins into the
    // table and dropping removable inputs.
    BitVector table = node.table;
    std::vector<std::size_t> fanins;  // new-netlist ids
    fanins.reserve(node.fanins.size());
    // Track positions: rebuild iteratively. We fold one input at a time,
    // scanning from the highest index so earlier strides stay valid.
    std::vector<NodeMapping> resolved;
    resolved.reserve(node.fanins.size());
    for (const auto fanin : node.fanins) resolved.push_back(mapping[fanin]);

    // Fold constants (highest index first keeps lower strides intact).
    for (std::size_t j = resolved.size(); j-- > 0;) {
      if (resolved[j].kind != NodeMapping::Kind::kConstant) continue;
      table = specialize_input(table, j, resolved[j].value);
      resolved.erase(resolved.begin() + static_cast<long>(j));
      ++stats.constants_folded;
    }
    // Drop removable inputs.
    for (std::size_t j = resolved.size(); j-- > 0;) {
      if (table.size() <= 1) break;
      if (!lut_input_removable(table, j)) continue;
      table = drop_input(table, j);
      resolved.erase(resolved.begin() + static_cast<long>(j));
      ++stats.inputs_disconnected;
    }

    // Classify the residue.
    if (resolved.empty()) {
      POETBIN_CHECK(table.size() == 1);
      mapping[id] = {NodeMapping::Kind::kConstant, 0, table.get(0)};
      continue;
    }
    if (resolved.size() == 1 && table.size() == 2 && !table.get(0) &&
        table.get(1)) {
      // Identity LUT -> wire.
      mapping[id] = resolved[0];
      ++stats.wires_collapsed;
      continue;
    }

    for (const auto& fanin : resolved) {
      POETBIN_CHECK(fanin.kind == NodeMapping::Kind::kNode);
      fanins.push_back(fanin.node_id);
    }
    mapping[id] = {NodeMapping::Kind::kNode,
                   optimized.add_lut(std::move(fanins), std::move(table),
                                     node.name),
                   false};
  }

  // Outputs: constants and aliases materialise as needed.
  for (const auto output : input.outputs()) {
    const NodeMapping& mapped = mapping[output];
    if (mapped.kind == NodeMapping::Kind::kConstant) {
      optimized.mark_output(get_constant(mapped.value));
    } else {
      optimized.mark_output(mapped.node_id);
    }
  }

  return optimized;
}

}  // namespace

Netlist optimize_netlist(const Netlist& input, NetlistOptStats* stats_out) {
  NetlistOptStats stats;
  stats.luts_before = input.n_luts();
  // The second sweep drops the logic the first one disconnected, such as
  // the DT subtree behind a dead MAT fanin. It folds nothing: the first
  // sweep already folded in topological order.
  const Netlist optimized = sweep(sweep(input, stats), stats);
  stats.luts_after = optimized.n_luts();
  if (stats_out != nullptr) *stats_out = stats;
  return optimized;
}

}  // namespace poetbin
