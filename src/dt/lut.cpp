#include "dt/lut.h"

#include "util/check.h"
#include "util/word_backend.h"

namespace poetbin {

Lut::Lut(std::vector<std::size_t> inputs, BitVector table)
    : inputs_(std::move(inputs)), table_(std::move(table)) {
  POETBIN_CHECK_MSG(inputs_.size() <= kMaxLutArity,
                    "LUT arity unrealistically large");
  POETBIN_CHECK(table_.size() == (std::size_t{1} << inputs_.size()));
}

}  // namespace poetbin
