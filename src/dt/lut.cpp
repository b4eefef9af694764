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

BitVector Lut::eval_dataset(const BitMatrix& features) const {
  const std::size_t n = features.rows();
  BitVector out(n);
  const auto addrs = addresses(features);
  for (std::size_t i = 0; i < n; ++i) {
    if (table_.get(addrs[i])) out.set(i, true);
  }
  return out;
}

std::vector<std::size_t> Lut::addresses(const BitMatrix& features) const {
  const std::size_t n = features.rows();
  std::vector<std::size_t> addrs(n, 0);
  for (std::size_t j = 0; j < inputs_.size(); ++j) {
    POETBIN_CHECK(inputs_[j] < features.cols());
    const BitVector& column = features.column(inputs_[j]);
    const std::uint64_t* words = column.words();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t bit = (words[i >> 6] >> (i & 63)) & 1ULL;
      addrs[i] |= bit << j;
    }
  }
  return addrs;
}

}  // namespace poetbin
