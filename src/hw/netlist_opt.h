// Synthesis-style netlist optimization.
//
// Reproduces, at the netlist level, what the paper observes the Xilinx
// synthesizer doing to PoET-BiN designs (§4.3): LUT inputs whose value can
// never change the output (e.g. MAT fanins with negligible Adaboost weight)
// are disconnected, LUTs that collapse to wires or constants disappear, and
// logic no longer reachable from an output is dropped. The pass is purely
// structural, and it is the one LUT-pruning analysis: the exporters ship
// its output, and the benches report its removed fraction.
#pragma once

#include "hw/netlist.h"

namespace poetbin {

struct NetlistOptStats {
  std::size_t luts_before = 0;
  std::size_t luts_after = 0;
  std::size_t inputs_disconnected = 0;  // removable LUT inputs dropped
  std::size_t constants_folded = 0;     // LUTs that became constants
  std::size_t wires_collapsed = 0;      // identity LUTs aliased away
  std::size_t dead_removed = 0;         // LUTs unreachable from outputs

  double removed_fraction() const {
    return luts_before == 0
               ? 0.0
               : 1.0 - static_cast<double>(luts_after) /
                           static_cast<double>(luts_before);
  }
};

// Returns an equivalent netlist with the same primary inputs and the same
// number of outputs (in the same order), so it can replace the netlist of a
// built PoetBinNetlist as is.
Netlist optimize_netlist(const Netlist& input, NetlistOptStats* stats = nullptr);

// True iff flipping address bit `input` never changes the lookup result.
bool lut_input_removable(const BitVector& table, std::size_t input);

}  // namespace poetbin
