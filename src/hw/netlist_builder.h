// Builds a LUT netlist from trained RincModule / PoetBin models.
//
// One netlist node per RINC-0 LUT and per MAT LUT, plus q code-bit LUTs per
// output neuron — exactly the structure the paper's VHDL generator emits.
#pragma once

#include <string>
#include <vector>

#include "core/poetbin.h"
#include "core/rinc.h"
#include "hw/netlist.h"

namespace poetbin {

// The classifier netlist. Its primary inputs are the features, and its
// outputs are the class codes, class-major: bit k (LSB first) of class c's
// quantized activation code is netlist.outputs()[c * quant_bits + k].
// optimize_netlist keeps inputs and outputs in that order, so an optimized
// netlist replaces `netlist` as is.
struct PoetBinNetlist {
  Netlist netlist;
  std::size_t quant_bits = 0;

  std::size_t n_classes() const {
    POETBIN_CHECK(quant_bits > 0);
    return netlist.outputs().size() / quant_bits;
  }
  // Simulates the netlist over every row and arg-maxes the class codes
  // (ties to the lower class index, matching PoetBin::predict).
  std::vector<int> predict_dataset(const BitMatrix& features) const;
};

// `n_features` fixes the primary-input width (the paper feeds 512 features
// through a shift register regardless of how many a module actually taps).
// A module's netlist has one output, the module's output bit.
Netlist build_rinc_netlist(const RincModule& module, std::size_t n_features);

PoetBinNetlist build_poetbin_netlist(const PoetBin& model,
                                     std::size_t n_features);

}  // namespace poetbin
