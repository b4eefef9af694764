// Verilog-2001 emitter — companion to the paper's VHDL generator for flows
// that prefer Verilog (e.g. Yosys/nextpnr). Same netlist-in, RTL-out
// contract as hw/vhdl.h: every LUT becomes a localparam truth table indexed
// by the concatenated fanin address.
#pragma once

#include <string>

#include "hw/netlist_builder.h"

namespace poetbin {

struct VerilogOptions {
  std::string module_name = "poetbin_classifier";
};

std::string generate_verilog(const PoetBinNetlist& model,
                             const VerilogOptions& options = {});

}  // namespace poetbin
