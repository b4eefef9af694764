#include "util/bitvector.h"

#include <bit>

#include "util/word_backend.h"

namespace poetbin {

namespace {
constexpr std::size_t words_for(std::size_t n_bits) { return (n_bits + 63) / 64; }
}  // namespace

BitVector::BitVector(std::size_t n_bits, bool value)
    : n_bits_(n_bits),
      words_(words_for(n_bits), value ? ~0ULL : 0ULL) {
  mask_tail();
}

void BitVector::clear() {
  for (auto& w : words_) w = 0;
}

void BitVector::fill(bool value) {
  for (auto& w : words_) w = value ? ~0ULL : 0ULL;
  mask_tail();
}

void BitVector::resize(std::size_t n_bits, bool value) {
  const std::size_t old_bits = n_bits_;
  n_bits_ = n_bits;
  words_.resize(words_for(n_bits), 0);
  if (value && n_bits > old_bits) {
    for (std::size_t i = old_bits; i < n_bits; ++i) set(i, true);
  }
  mask_tail();
}

void BitVector::push_back(bool value) {
  resize(n_bits_ + 1);
  set(n_bits_ - 1, value);
}

bool BitVector::operator==(const BitVector& other) const {
  return n_bits_ == other.n_bits_ && words_ == other.words_;
}

void BitVector::xor_into(const BitVector& other, BitVector& dst) const {
  POETBIN_CHECK(n_bits_ == other.n_bits_);
  dst.n_bits_ = n_bits_;
  dst.words_.resize(words_.size());
  for (std::size_t w = 0; w < words_.size(); ++w) {
    dst.words_[w] = words_[w] ^ other.words_[w];
  }
  // Both operands keep zero tails, so the xor does too; re-masking costs one
  // AND and keeps the invariant independent of the operands' history.
  dst.mask_tail();
}

double BitVector::masked_weighted_sum(std::span<const double> weights) const {
  POETBIN_CHECK(weights.size() == n_bits_);
  return masked_weighted_sum_words(words_, weights, n_bits_);
}

std::size_t BitVector::xnor_popcount(const BitVector& other) const {
  POETBIN_CHECK(n_bits_ == other.n_bits_);
  return n_bits_ - hamming(other);
}

std::size_t BitVector::hamming(const BitVector& other) const {
  POETBIN_CHECK(n_bits_ == other.n_bits_);
  return word_ops().hamming_words(words_.data(), other.words_.data(),
                                  words_.size());
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(n_bits_);
  for (std::size_t i = 0; i < n_bits_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

double masked_weighted_sum_words(std::span<const std::uint64_t> words,
                                 std::span<const double> weights,
                                 std::size_t n_bits) {
  POETBIN_CHECK(weights.size() >= n_bits);
  const std::size_t n_words = BitVector::words_needed(n_bits);
  POETBIN_CHECK(words.size() >= n_words);
  double total = 0.0;
  for (std::size_t w = 0; w < n_words; ++w) {
    std::uint64_t mask = words[w];
    if (w + 1 == n_words) mask &= BitVector::tail_word_mask(n_bits);
    const std::size_t row0 = w * 64;
    while (mask != 0) {
      total += weights[row0 + static_cast<std::size_t>(std::countr_zero(mask))];
      mask &= mask - 1;
    }
  }
  return total;
}

void BitVector::mask_tail() {
  if (!words_.empty()) words_.back() &= tail_word_mask(n_bits_);
}

}  // namespace poetbin
