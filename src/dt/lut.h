// Look-Up Table: the atomic hardware unit of PoET-BiN.
//
// A Lut selects P input features (by index into the binary feature vector)
// and stores one output bit for each of the 2^P input combinations — exactly
// the Input-vs-Output table of Fig. 1. Address convention: bit j of the
// table address is the value of input feature `inputs()[j]` (the feature
// selected at DT level j), so address = sum_j x[inputs[j]] << j.
//
// The compact 2^P-bit table is the LUT's only representation: lookup()
// reads its bits, the word-parallel kernels (WordOps::lut_reduce) reduce
// straight from its words, and the gather program (core/gather_program.h)
// copies it. A Lut evaluates nothing itself: dataset passes go through
// RincModule::eval_dataset_batched or a BatchEngine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitvector.h"

namespace poetbin {

class Lut {
 public:
  Lut() = default;
  Lut(std::vector<std::size_t> inputs, BitVector table);

  std::size_t arity() const { return inputs_.size(); }
  std::size_t table_size() const { return table_.size(); }
  const std::vector<std::size_t>& inputs() const { return inputs_; }
  const BitVector& table() const { return table_; }

  bool lookup(std::size_t address) const { return table_.get(address); }

  bool operator==(const Lut& other) const {
    return inputs_ == other.inputs_ && table_ == other.table_;
  }

 private:
  std::vector<std::size_t> inputs_;
  BitVector table_;  // size 2^arity, tail bits zero
};

}  // namespace poetbin
