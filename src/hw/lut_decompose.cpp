#include "hw/lut_decompose.h"

namespace poetbin {

std::size_t six_lut_cost(std::size_t arity) {
  if (arity <= 6) return 1;
  return std::size_t{1} << (arity - 6);
}

std::size_t six_lut_levels(std::size_t arity) { return arity <= 6 ? 1 : 2; }

std::size_t six_lut_count(const Netlist& netlist) {
  std::size_t total = 0;
  for (const auto& [arity, count] : netlist.arity_histogram()) {
    total += count * six_lut_cost(arity);
  }
  return total;
}

}  // namespace poetbin
