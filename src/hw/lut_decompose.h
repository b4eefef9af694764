// 8->6 input LUT decomposition.
//
// Spartan-6 slices provide 6-input LUTs; the paper notes each 8-input LUT
// maps to four 6-input LUTs (plus dedicated mux resources that are not
// counted). It also reports that the Xilinx synthesizer removes LUTs whose
// MAT fanin weight is too small to ever flip the threshold (~36% of LUTs on
// CIFAR-10). `optimize_netlist` (hw/netlist_opt.h) reproduces that analysis
// on a built netlist; `six_lut_count` of the netlist before and after it
// gives the raw and kept 6-LUT counts.
#pragma once

#include <cstddef>

#include "hw/netlist.h"

namespace poetbin {

// 6-input-LUT cost of one a-input LUT: 1 for a <= 6, else 2^(a-6).
std::size_t six_lut_cost(std::size_t arity);

// Logic levels of one a-input LUT after decomposition: 1 for a <= 6, else 2
// (the mux stage after the four 6-LUTs adds one level).
std::size_t six_lut_levels(std::size_t arity);

// 6-LUTs after decomposition of every LUT in `netlist`: the sum of
// six_lut_cost over its LUT arities.
std::size_t six_lut_count(const Netlist& netlist);

}  // namespace poetbin
