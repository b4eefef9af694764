// Look-Up Table: the atomic hardware unit of PoET-BiN.
//
// A Lut selects P input features (by index into the binary feature vector)
// and stores one output bit for each of the 2^P input combinations — exactly
// the Input-vs-Output table of Fig. 1. Address convention: bit j of the
// table address is the value of input feature `inputs()[j]` (the feature
// selected at DT level j), so address = sum_j x[inputs[j]] << j.
//
// The compact 2^P-bit table is the LUT's only representation: lookup()
// reads its bits and the word-parallel kernels (WordOps::lut_reduce) reduce
// straight from its words. A Lut is an immutable, cheaply copied handle:
// one built from vectors (training, hand-built models) owns them; one a
// packed load made views the inputs and the table where they sit in the
// loaded file's buffer, which every copy keeps alive. Word j of the table
// is at j x stride() from the first: 1 for an owned table, the level's
// plane stride for a multi-word table of a program image's plane-major
// level (core/gather_program.h). A Lut evaluates nothing itself: dataset
// passes go through RincModule::eval_dataset_batched or a BatchEngine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/bitvector.h"

namespace poetbin {

class Lut {
 public:
  // Longest table a strided view holds (arity 8, the widest plane-major
  // level): contiguous_words' scratch size.
  static constexpr std::size_t kMaxStridedWords = 4;

  Lut() = default;
  Lut(std::vector<std::size_t> inputs, BitVector table);

  // A view of `arity` inputs at `inputs` and a table whose word j is
  // table[j * stride], both kept alive by `owner` (the packed loader's
  // buffer). The caller guarantees the extents and the zero tail bits.
  static Lut view(std::shared_ptr<const void> owner,
                  const std::size_t* inputs, std::size_t arity,
                  const std::uint64_t* table, std::size_t stride);

  std::size_t arity() const { return arity_; }
  std::size_t table_size() const {
    return table_ == nullptr ? 0 : std::size_t{1} << arity_;
  }
  std::size_t word_count() const {
    return BitVector::words_needed(table_size());
  }
  std::span<const std::size_t> inputs() const { return {inputs_, arity_}; }

  std::uint64_t table_word(std::size_t j) const { return table_[j * stride_]; }
  const std::uint64_t* table_data() const { return table_; }
  std::size_t stride() const { return stride_; }
  // The table's words back to back: table_data() itself, or for a strided
  // multi-word view a copy in `scratch` (kMaxStridedWords words).
  const std::uint64_t* contiguous_words(std::uint64_t* scratch) const {
    return stride_ == 1 || arity_ <= 6 ? table_ : copy_words(scratch);
  }
  // A copy of the table.
  BitVector table() const;

  bool lookup(std::size_t address) const {
    return (table_[(address >> 6) * stride_] >> (address & 63)) & 1u;
  }

  bool operator==(const Lut& other) const;

 private:
  const std::uint64_t* copy_words(std::uint64_t* scratch) const;

  std::shared_ptr<const void> owner_;
  const std::size_t* inputs_ = nullptr;
  const std::uint64_t* table_ = nullptr;  // null for a default Lut
  std::size_t arity_ = 0;
  std::size_t stride_ = 1;
};

// The inputs() a MAT LUT's view reports: its address bits are child-module
// outputs, not features.
inline constexpr std::size_t kMaxMatFanin = 20;
inline constexpr std::size_t kZeroInputs[kMaxMatFanin] = {};

}  // namespace poetbin
