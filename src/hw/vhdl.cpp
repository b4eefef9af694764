#include "hw/vhdl.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace poetbin {

namespace {

// VHDL signal name for a netlist node.
std::string node_signal(const Netlist& netlist, std::size_t id) {
  const NetlistNode& node = netlist.node(id);
  if (node.kind == NetlistNode::Kind::kInput) {
    return "x(" + std::to_string(node.input_index) + ")";
  }
  return "n_" + node.name;
}

// Truth table as a VHDL bit-string literal, MSB (highest address) first.
std::string table_literal(const BitVector& table) {
  std::string bits;
  bits.reserve(table.size());
  for (std::size_t i = table.size(); i-- > 0;) {
    bits.push_back(table.get(i) ? '1' : '0');
  }
  return "\"" + bits + "\"";
}

void emit_lut_nodes(std::ostringstream& os, const Netlist& netlist) {
  // Declarations.
  for (std::size_t id = 0; id < netlist.n_nodes(); ++id) {
    const NetlistNode& node = netlist.node(id);
    if (node.kind != NetlistNode::Kind::kLut) continue;
    os << "  signal n_" << node.name << " : std_logic;\n";
    if (node.fanins.empty()) continue;  // constant node: no table/address
    os << "  constant TBL_" << node.name << " : std_logic_vector("
       << node.table.size() - 1 << " downto 0) := " << table_literal(node.table)
       << ";\n";
    os << "  signal a_" << node.name << " : std_logic_vector("
       << node.fanins.size() - 1 << " downto 0);\n";
  }
  os << "begin\n";
  // Concurrent assignments: address concatenation then table lookup.
  for (std::size_t id = 0; id < netlist.n_nodes(); ++id) {
    const NetlistNode& node = netlist.node(id);
    if (node.kind != NetlistNode::Kind::kLut) continue;
    if (node.fanins.empty()) {
      os << "  n_" << node.name << " <= '"
         << (node.table.get(0) ? '1' : '0') << "';\n";
      continue;
    }
    // A one-bit address is a std_logic, which VHDL cannot assign to a
    // vector: it goes into element 0 instead.
    os << "  a_" << node.name << (node.fanins.size() == 1 ? "(0)" : "")
       << " <= ";
    for (std::size_t j = node.fanins.size(); j-- > 0;) {
      os << node_signal(netlist, node.fanins[j]);
      if (j != 0) os << " & ";
    }
    os << ";\n";
    os << "  n_" << node.name << " <= TBL_" << node.name
       << "(to_integer(unsigned(a_" << node.name << ")));\n";
  }
}

void emit_header(std::ostringstream& os) {
  os << "library ieee;\n"
     << "use ieee.std_logic_1164.all;\n"
     << "use ieee.numeric_std.all;\n\n";
}

}  // namespace

std::string generate_vhdl(const PoetBinNetlist& model, const VhdlOptions& options) {
  const Netlist& netlist = model.netlist;
  const std::size_t n_features = netlist.n_inputs();
  const std::size_t n_classes = model.n_classes();
  POETBIN_CHECK(n_classes > 0);
  const std::size_t qbits = model.quant_bits;

  std::ostringstream os;
  os << "-- Generated by PoET-BiN (automatic VHDL generation, paper SS4.2).\n"
     << "-- " << netlist.n_luts() << " LUTs, depth " << netlist.depth()
     << ", " << n_features << " input features, " << n_classes
     << " classes x " << qbits << "-bit codes.\n";
  emit_header(os);

  os << "entity " << options.entity_name << " is\n"
     << "  port (\n"
     << "    x : in  std_logic_vector(" << n_features - 1
     << " downto 0);\n";
  for (std::size_t c = 0; c < n_classes; ++c) {
    os << "    score" << c << " : out std_logic_vector(" << qbits - 1
       << " downto 0)" << (c + 1 < n_classes ? ";" : "") << "\n";
  }
  os << "  );\n"
     << "end entity " << options.entity_name << ";\n\n";

  os << "architecture lut_network of " << options.entity_name << " is\n";
  emit_lut_nodes(os, netlist);
  for (std::size_t c = 0; c < n_classes; ++c) {
    for (std::size_t k = 0; k < qbits; ++k) {
      os << "  score" << c << "(" << k << ") <= "
         << node_signal(netlist, netlist.outputs()[c * qbits + k]) << ";\n";
    }
  }
  os << "end architecture lut_network;\n";
  return os.str();
}

std::string generate_testbench(const PoetBinNetlist& model,
                               const BitMatrix& features,
                               const VhdlOptions& options) {
  const std::size_t n_features = model.netlist.n_inputs();
  const std::size_t n_classes = model.n_classes();
  const std::size_t qbits = model.quant_bits;
  const std::size_t n_vectors =
      std::min(options.testbench_vectors, features.rows());
  POETBIN_CHECK(features.cols() == n_features);

  std::ostringstream os;
  os << "-- Self-checking testbench generated by PoET-BiN.\n";
  emit_header(os);
  os << "entity " << options.entity_name << "_tb is\n"
     << "end entity " << options.entity_name << "_tb;\n\n"
     << "architecture behaviour of " << options.entity_name << "_tb is\n"
     << "  signal x : std_logic_vector(" << n_features - 1
     << " downto 0);\n";
  for (std::size_t c = 0; c < n_classes; ++c) {
    os << "  signal score" << c << " : std_logic_vector(" << qbits - 1
       << " downto 0);\n";
  }
  os << "begin\n"
     << "  dut : entity work." << options.entity_name << "\n"
     << "    port map (x => x";
  for (std::size_t c = 0; c < n_classes; ++c) {
    os << ", score" << c << " => score" << c;
  }
  os << ");\n\n"
     << "  stimulus : process\n"
     << "  begin\n";

  for (std::size_t v = 0; v < n_vectors; ++v) {
    const BitVector row = features.row(v);
    const std::vector<bool> codes = model.netlist.simulate_outputs(row);
    // Input literal: bit F-1 ... bit 0.
    std::string literal;
    literal.reserve(n_features);
    for (std::size_t f = n_features; f-- > 0;) {
      literal.push_back(row.get(f) ? '1' : '0');
    }
    os << "    x <= \"" << literal << "\";\n"
       << "    wait for 20 ns;\n";
    for (std::size_t c = 0; c < n_classes; ++c) {
      std::string expected;
      expected.reserve(qbits);
      for (std::size_t k = qbits; k-- > 0;) {
        expected.push_back(codes[c * qbits + k] ? '1' : '0');
      }
      os << "    assert score" << c << " = \"" << expected
         << "\" report \"vector " << v << " class " << c
         << " mismatch\" severity error;\n";
    }
  }

  os << "    report \"testbench completed: " << n_vectors
     << " vectors checked\" severity note;\n"
     << "    wait;\n"
     << "  end process stimulus;\n"
     << "end architecture behaviour;\n";
  return os.str();
}

}  // namespace poetbin
