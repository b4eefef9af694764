#include "hw/verilog.h"

#include <sstream>

#include "util/check.h"

namespace poetbin {

namespace {

std::string node_signal(const Netlist& netlist, std::size_t id) {
  const NetlistNode& node = netlist.node(id);
  if (node.kind == NetlistNode::Kind::kInput) {
    return "x[" + std::to_string(node.input_index) + "]";
  }
  return "n_" + node.name;
}

std::string table_literal(const BitVector& table) {
  std::string bits;
  bits.reserve(table.size());
  for (std::size_t i = table.size(); i-- > 0;) {
    bits.push_back(table.get(i) ? '1' : '0');
  }
  return std::to_string(table.size()) + "'b" + bits;
}

void emit_lut_nodes(std::ostringstream& os, const Netlist& netlist) {
  for (std::size_t id = 0; id < netlist.n_nodes(); ++id) {
    const NetlistNode& node = netlist.node(id);
    if (node.kind != NetlistNode::Kind::kLut) continue;
    if (node.fanins.empty()) {
      // Constant node (possible after netlist optimization).
      os << "  wire n_" << node.name << " = 1'b"
         << (node.table.get(0) ? '1' : '0') << ";\n";
      continue;
    }
    os << "  localparam [" << node.table.size() - 1 << ":0] TBL_" << node.name
       << " = " << table_literal(node.table) << ";\n";
    os << "  wire n_" << node.name << " = TBL_" << node.name << "[{";
    for (std::size_t j = node.fanins.size(); j-- > 0;) {
      os << node_signal(netlist, node.fanins[j]);
      if (j != 0) os << ", ";
    }
    os << "}];\n";
  }
}

}  // namespace

std::string generate_verilog(const PoetBinNetlist& model,
                             const VerilogOptions& options) {
  const Netlist& netlist = model.netlist;
  const std::size_t n_classes = model.n_classes();
  POETBIN_CHECK(n_classes > 0);
  const std::size_t qbits = model.quant_bits;

  std::ostringstream os;
  os << "// Generated by PoET-BiN: " << netlist.n_luts() << " LUTs, depth "
     << netlist.depth() << ".\n";
  os << "module " << options.module_name << " (\n"
     << "  input  wire [" << netlist.n_inputs() - 1 << ":0] x";
  for (std::size_t c = 0; c < n_classes; ++c) {
    os << ",\n  output wire [" << qbits - 1 << ":0] score" << c;
  }
  os << "\n);\n";
  emit_lut_nodes(os, netlist);
  for (std::size_t c = 0; c < n_classes; ++c) {
    for (std::size_t k = 0; k < qbits; ++k) {
      os << "  assign score" << c << "[" << k << "] = "
         << node_signal(netlist, netlist.outputs()[c * qbits + k]) << ";\n";
    }
  }
  os << "endmodule\n";
  return os.str();
}

}  // namespace poetbin
