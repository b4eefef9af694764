#include "reference/scalar_reference.h"
#include "util/check.h"

namespace poetbin::reference {

bool verify_equivalent(const Netlist& a, const Netlist& b,
                       const BitMatrix& vectors) {
  POETBIN_CHECK(a.outputs().size() == b.outputs().size());
  for (std::size_t i = 0; i < vectors.rows(); ++i) {
    const BitVector row = vectors.row(i);
    if (a.simulate_outputs(row) != b.simulate_outputs(row)) return false;
  }
  return true;
}

}  // namespace poetbin::reference
