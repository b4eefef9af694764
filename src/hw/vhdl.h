// Automatic VHDL generation — the paper's fifth contribution.
//
// Emits a synthesizable entity in which every netlist LUT becomes a
// constant std_logic_vector indexed by the concatenated fanin address
// (the canonical LUT inference idiom), plus a self-checking testbench that
// replays dataset vectors and asserts the expected class codes — the same
// FPGA-vs-PyTorch verification loop described in §4.2, with our netlist
// simulator supplying the golden outputs.
#pragma once

#include <string>

#include "hw/netlist_builder.h"
#include "util/bit_matrix.h"

namespace poetbin {

struct VhdlOptions {
  std::string entity_name = "poetbin_classifier";
  // Testbench: number of dataset rows to embed as check vectors.
  std::size_t testbench_vectors = 16;
};

// RTL for the classifier netlist: inputs x(F-1 downto 0), one q-bit code
// output per class.
std::string generate_vhdl(const PoetBinNetlist& model,
                          const VhdlOptions& options = {});

// Self-checking testbench: instantiates the classifier entity and asserts
// the netlist-simulated codes for the first `options.testbench_vectors`
// rows of `features`.
std::string generate_testbench(const PoetBinNetlist& model,
                               const BitMatrix& features,
                               const VhdlOptions& options = {});

}  // namespace poetbin
