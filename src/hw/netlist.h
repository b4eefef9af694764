// LUT-netlist intermediate representation and bit-exact simulator.
//
// The netlist is what "ships to hardware": primary inputs (feature bits) and
// LUT nodes wired to earlier nodes. Node ids are topological by
// construction (a LUT may only reference already-created nodes), so
// simulation is a single forward pass. The paper verifies its FPGA
// implementation against PyTorch outputs in a generated testbench; our
// equivalent check simulates this netlist and compares with the C++ model
// bit-for-bit (see tests/netlist_test.cpp and examples/vhdl_export.cpp).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util/bit_matrix.h"
#include "util/bitvector.h"
#include "util/check.h"

namespace poetbin {

struct NetlistNode {
  enum class Kind { kInput, kLut };

  Kind kind = Kind::kInput;
  // kInput: which bit of the primary input vector this node carries.
  std::size_t input_index = 0;
  // kLut: fanin node ids, at most kMaxLutArity; address bit j comes from
  // fanins[j].
  std::vector<std::size_t> fanins;
  // kLut: truth table of size 2^fanins.size().
  BitVector table;
  std::string name;
};

class Netlist {
 public:
  std::size_t add_input(std::size_t input_index, std::string name);
  std::size_t add_lut(std::vector<std::size_t> fanins, BitVector table,
                      std::string name);

  void mark_output(std::size_t node_id);

  std::size_t n_nodes() const { return nodes_.size(); }
  std::size_t n_inputs() const { return n_inputs_; }
  std::size_t n_luts() const { return nodes_.size() - n_inputs_; }
  const NetlistNode& node(std::size_t id) const { return nodes_.at(id); }
  const std::vector<std::size_t>& outputs() const { return outputs_; }

  // LUT levels on the longest input->output path (inputs are level 0).
  std::size_t depth() const;
  // Count of LUTs per arity (diagnostics / area model).
  std::map<std::size_t, std::size_t> arity_histogram() const;

  // Simulates the whole netlist for one primary-input assignment; returns
  // one value per node.
  std::vector<bool> simulate(const BitVector& input_bits) const;
  // Values of the marked outputs only, in mark order.
  std::vector<bool> simulate_outputs(const BitVector& input_bits) const;

  // Word-parallel simulation of all dataset rows at once: every node gets a
  // BitVector with one bit per example. Each LUT is one WordOps::lut_reduce
  // call over its fanins' 64-example words, the kernel batch inference runs,
  // which is what makes whole-test-set hardware verification cheap.
  // `features` must be feature-major with at least max(input_index)+1
  // columns.
  std::vector<BitVector> simulate_dataset(const BitMatrix& features) const;
  // Output columns only (one BitVector of n_examples bits per output).
  std::vector<BitVector> simulate_dataset_outputs(const BitMatrix& features) const;

 private:
  std::vector<NetlistNode> nodes_;
  std::vector<std::size_t> outputs_;
  std::size_t n_inputs_ = 0;
};

}  // namespace poetbin
