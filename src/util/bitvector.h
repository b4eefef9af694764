// Packed bit vector with word-level raw access and a Hamming count.
//
// This is the unit of storage for binary activations: one BitVector holds
// either one example's feature bits or (in BitMatrix) one feature's value
// across all examples.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/aligned_vector.h"
#include "util/check.h"

namespace poetbin {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t n_bits, bool value = false);

  std::size_t size() const { return n_bits_; }
  bool empty() const { return n_bits_ == 0; }

  bool get(std::size_t i) const {
    POETBIN_CHECK(i < n_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool value) {
    POETBIN_CHECK(i < n_bits_);
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void clear();             // all bits -> 0
  void fill(bool value);    // all bits -> value
  void resize(std::size_t n_bits, bool value = false);
  void push_back(bool value);

  bool operator==(const BitVector& other) const;

  // dst = *this ^ other, reusing dst's storage (Adaboost recomputes the
  // disagreement mask every round; this keeps the round loop allocation-free
  // after the first call). Operands must have equal size.
  void xor_into(const BitVector& other, BitVector& dst) const;

  // Sum of weights[i] over the set bits, accumulated in ascending bit order —
  // exactly the order of a scalar `if (get(i)) acc += weights[i]` loop, so
  // results are bit-identical to it. weights.size() must equal size().
  double masked_weighted_sum(std::span<const double> weights) const;

  // XNOR-popcount: number of positions where the two vectors agree.
  // This is the binary "dot product" used by BinaryNet-style neurons.
  std::size_t xnor_popcount(const BitVector& other) const;

  // Hamming distance (positions where they differ).
  std::size_t hamming(const BitVector& other) const;

  // Raw word access for tight inner loops (e.g. LevelDT's entropy scan).
  const std::uint64_t* words() const { return words_.data(); }
  std::uint64_t* words() { return words_.data(); }
  std::size_t word_count() const { return words_.size(); }

  // Span view over the packed words (the unit of the bitsliced batch
  // engine: one word = 64 examples of one feature).
  std::span<const std::uint64_t> word_span() const { return words_; }

  // Writers of raw words must re-establish the invariant that bits beyond
  // size() are zero; calling this after the last word is written does so.
  void mask_tail_word() { mask_tail(); }

  static constexpr std::size_t kWordBits = 64;
  static constexpr std::size_t words_needed(std::size_t n_bits) {
    return (n_bits + kWordBits - 1) / kWordBits;
  }
  // All-ones over the positions a vector of n_bits occupies within its last
  // word (all-ones when the last word is full). The single source of truth
  // for tail handling — word-level consumers AND their last word with this.
  static constexpr std::uint64_t tail_word_mask(std::size_t n_bits) {
    const std::size_t rem = n_bits % kWordBits;
    return rem == 0 ? ~0ULL : (1ULL << rem) - 1;
  }

  // "0101..." with bit 0 first; for tests and debugging.
  std::string to_string() const;

 private:
  void mask_tail();  // zero bits beyond n_bits_ in the last word

  std::size_t n_bits_ = 0;
  // 64-byte-aligned so the SIMD word backends (util/word_backend.h) can use
  // full-width loads unconditionally.
  WordVec words_;
};

// Masked weighted sum over a raw word span: sum of weights[i] for every set
// bit i < n_bits, ascending. Bits beyond n_bits in the last word are ignored,
// so raw-word writers that have not re-masked their tail are still safe.
double masked_weighted_sum_words(std::span<const std::uint64_t> words,
                                 std::span<const double> weights,
                                 std::size_t n_bits);

}  // namespace poetbin
