// Look-Up Table: the atomic hardware unit of PoET-BiN.
//
// A Lut selects P input features (by index into the binary feature vector)
// and stores one output bit for each of the 2^P input combinations — exactly
// the Input-vs-Output table of Fig. 1. Address convention: bit j of the
// table address is the value of input feature `inputs()[j]` (the feature
// selected at DT level j), so address = sum_j x[inputs[j]] << j.
//
// The compact 2^P-bit table is the LUT's only representation: the scalar
// lookups read its bits, and the word-parallel kernels
// (WordOps::lut_reduce) reduce straight from its words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bit_matrix.h"
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

  // Evaluates all rows of a feature-major dataset in one pass per input.
  BitVector eval_dataset(const BitMatrix& features) const;

  // Word-parallel evaluation: Shannon-expands the truth table over the P
  // packed column words, processing 64 examples per step with pure word
  // logic. Bit-identical to eval_dataset. Defined in core/batch_eval.cpp.
  BitVector eval_dataset_bitsliced(const BitMatrix& features) const;

  // Per-example addresses for a whole dataset (used by the sparse output
  // layer, whose LUT output is multi-bit).
  std::vector<std::size_t> addresses(const BitMatrix& features) const;

  bool operator==(const Lut& other) const {
    return inputs_ == other.inputs_ && table_ == other.table_;
  }

 private:
  std::vector<std::size_t> inputs_;
  BitVector table_;  // size 2^arity, tail bits zero
};

}  // namespace poetbin
