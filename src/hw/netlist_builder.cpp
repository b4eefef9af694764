#include "hw/netlist_builder.h"

#include <string>

namespace poetbin {

namespace {

// Adds the module's LUTs to the netlist; returns the output node id.
// `input_nodes[f]` is the node carrying feature f.
std::size_t add_module(Netlist& netlist, const RincModule& module,
                       const std::vector<std::size_t>& input_nodes,
                       const std::string& prefix) {
  if (module.is_leaf()) {
    const Lut& lut = module.leaf_lut();
    std::vector<std::size_t> fanins;
    fanins.reserve(lut.arity());
    for (const auto f : lut.inputs()) {
      POETBIN_CHECK(f < input_nodes.size());
      fanins.push_back(input_nodes[f]);
    }
    return netlist.add_lut(std::move(fanins), lut.table(), prefix + "_dt");
  }
  std::vector<std::size_t> child_outputs;
  child_outputs.reserve(module.children().size());
  for (std::size_t c = 0; c < module.children().size(); ++c) {
    child_outputs.push_back(add_module(netlist, module.children()[c],
                                       input_nodes,
                                       prefix + "_c" + std::to_string(c)));
  }
  return netlist.add_lut(std::move(child_outputs), module.mat_lut().table(),
                         prefix + "_mat");
}

std::vector<std::size_t> add_primary_inputs(Netlist& netlist,
                                            std::size_t n_features) {
  std::vector<std::size_t> input_nodes;
  input_nodes.reserve(n_features);
  for (std::size_t f = 0; f < n_features; ++f) {
    input_nodes.push_back(netlist.add_input(f, "x" + std::to_string(f)));
  }
  return input_nodes;
}

}  // namespace

Netlist build_rinc_netlist(const RincModule& module, std::size_t n_features) {
  Netlist netlist;
  const auto input_nodes = add_primary_inputs(netlist, n_features);
  netlist.mark_output(add_module(netlist, module, input_nodes, "rinc"));
  return netlist;
}

PoetBinNetlist build_poetbin_netlist(const PoetBin& model,
                                     std::size_t n_features) {
  PoetBinNetlist result;
  result.quant_bits = static_cast<std::size_t>(model.quant_bits());
  Netlist& netlist = result.netlist;
  const auto input_nodes = add_primary_inputs(netlist, n_features);

  // RINC bank: one output node per intermediate neuron.
  std::vector<std::size_t> module_outputs;
  module_outputs.reserve(model.n_modules());
  for (std::size_t m = 0; m < model.n_modules(); ++m) {
    module_outputs.push_back(add_module(netlist, model.modules()[m], input_nodes,
                                        "rinc" + std::to_string(m)));
  }

  // Sparse output layer: q code-bit LUTs per class, each reading the class's
  // P module outputs, marked as outputs class-major.
  const int qbits = model.quant_bits();
  for (std::size_t c = 0; c < model.n_classes(); ++c) {
    const SparseOutputNeuron& neuron = model.output_neurons()[c];
    std::vector<std::size_t> fanins;
    fanins.reserve(neuron.input_modules.size());
    for (const auto m : neuron.input_modules) {
      fanins.push_back(module_outputs[m]);
    }
    for (int k = 0; k < qbits; ++k) {
      BitVector table(neuron.codes.size());
      for (std::size_t combo = 0; combo < neuron.codes.size(); ++combo) {
        if ((neuron.codes[combo] >> k) & 1u) table.set(combo, true);
      }
      netlist.mark_output(netlist.add_lut(
          fanins, std::move(table),
          "out" + std::to_string(c) + "_b" + std::to_string(k)));
    }
  }
  return result;
}

std::vector<int> PoetBinNetlist::predict_dataset(const BitMatrix& features) const {
  // Word-parallel simulation: one pass over the netlist covers 64 examples
  // per word, then the class codes are decoded per example.
  const std::vector<BitVector> codes =
      netlist.simulate_dataset_outputs(features);
  std::vector<int> out(features.rows(), 0);
  for (std::size_t i = 0; i < features.rows(); ++i) {
    std::size_t best_class = 0;
    std::uint64_t best_code = 0;
    for (std::size_t c = 0; c < n_classes(); ++c) {
      std::uint64_t code = 0;
      for (std::size_t k = 0; k < quant_bits; ++k) {
        if (codes[c * quant_bits + k].get(i)) code |= std::uint64_t{1} << k;
      }
      if (c == 0 || code > best_code) {
        best_code = code;
        best_class = c;
      }
    }
    out[i] = static_cast<int>(best_class);
  }
  return out;
}

}  // namespace poetbin
