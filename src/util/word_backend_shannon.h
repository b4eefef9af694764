// Internal: the register-resident Shannon LUT reduction behind every word
// backend's WordOps::lut_reduce.
//
// A backend describes its vector type with a traits struct
//
//   struct Traits {
//     using Vec = ...;                            // kBlock 64-bit words
//     static constexpr std::size_t kBlock = ...;
//     static Vec load(const std::uint64_t* p);    // unaligned
//     static void store(std::uint64_t* p, Vec v); // unaligned
//     static Vec bit_not(Vec v);                  // bitwise ~v
//     static Vec mux(Vec f0, Vec f1, Vec x);      // bitwise x ? f1 : f0
//   };
//
// declared in an anonymous namespace of its own TU (so every instantiation
// below has internal linkage and is compiled with that TU's ISA flags), and
// points WordOps::lut_reduce at word_impl::shannon_lut_reduce<Traits>.
// scalar64 is the one-word instance (Vec = uint64_t, kBlock = 1).
//
// The bottom level is folded. Address bit 0 muxes two constant table
// entries, so mux(e0, e1, x0) can only be 0, ~x0, x0 or ~0. Each block
// builds those four values once (one NOT), and an entry pair's two table
// bits (e0 | e1 << 1) pick one of them by an indexed load, with no mux.
// Only the levels above are muxes: a k-input LUT costs 2^(k-1) - 1 muxes
// and one NOT per block, 32 ops for a 64-entry table where the plain
// expansion spends 63. Arity 0 runs as arity 1 over an all-zero x0, which
// picks entry 0.
//
// The reduction is depth-first. A subtree of up to six address bits is
// unrolled at compile time, so a 64-entry subtree lives in registers from
// its picks to its single result, and the picks read the compact table
// (one bit per entry) directly: nothing is expanded or copied per call.
// Tables of up to six inputs reduce two blocks per subtree walk, sharing
// each pair's index math. Wider tables are walked as consecutive 64-entry
// subtrees whose results fold through a small stack indexed by address
// level: subtree s merges with the pending result of every level whose bit
// is set in s, the carry chain of a binary counter. Every op is exact
// bitwise logic, so all backends are bit-identical; the column-scan
// reference::eval_dataset in tests/reference is the oracle.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/word_backend.h"

namespace poetbin::word_impl {

// Address bits reduced by one compile-time-unrolled subtree.
inline constexpr std::size_t kSubtreeBits = 6;

// values[0..4) = {0, ~x0, x0, ~0}: the bottom-level mux's four outcomes,
// indexed by its entry pair's bits e0 | e1 << 1.
template <class Traits>
[[gnu::always_inline]] inline void set_pair_values(
    typename Traits::Vec x0, typename Traits::Vec* values) {
  const typename Traits::Vec zero = {};
  values[0] = zero;
  values[1] = Traits::bit_not(x0);
  values[2] = x0;
  values[3] = Traits::bit_not(zero);
}

// Byte offset of entry pair [E, E + 2) in a pair-value array: its two table
// bits shifted straight to the element-size position, so the index costs a
// shift and an AND and no separate scale.
template <class Traits, std::size_t E>
[[gnu::always_inline]] inline std::size_t pair_offset(
    const std::uint64_t* table) {
  constexpr std::size_t kShift = std::countr_zero(sizeof(typename Traits::Vec));
  constexpr std::size_t kBit = E & 63;
  const std::uint64_t word = table[E >> 6];
  const std::uint64_t moved =
      kBit >= kShift ? word >> (kBit - kShift) : word << (kShift - kBit);
  return moved & (std::uint64_t{3} << kShift);
}

template <class Traits>
[[gnu::always_inline]] inline typename Traits::Vec pick(
    const typename Traits::Vec* values, std::size_t offset) {
  return *reinterpret_cast<const typename Traits::Vec*>(
      reinterpret_cast<const char*>(values) + offset);
}

// Reduces table entries [E, E + 2^L) over inputs x[0..L), L >= 1; `values`
// holds x[0]'s pair values.
template <class Traits, std::size_t L, std::size_t E = 0>
[[gnu::always_inline]] inline typename Traits::Vec shannon_subtree(
    const std::uint64_t* table, const typename Traits::Vec* values,
    const typename Traits::Vec* x) {
  static_assert(L >= 1);
  if constexpr (L == 1) {
    return pick<Traits>(values, pair_offset<Traits, E>(table));
  } else {
    constexpr std::size_t kHalf = std::size_t{1} << (L - 1);
    const typename Traits::Vec lo =
        shannon_subtree<Traits, L - 1, E>(table, values, x);
    const typename Traits::Vec hi =
        shannon_subtree<Traits, L - 1, E + kHalf>(table, values, x);
    return Traits::mux(lo, hi, x[L - 1]);
  }
}

// Two blocks' subtrees side by side: each entry pair's offset picks from
// both blocks' pair values.
template <class Traits, std::size_t L, std::size_t E = 0>
[[gnu::always_inline]] inline void shannon_subtree_x2(
    const std::uint64_t* table, const typename Traits::Vec* values_a,
    const typename Traits::Vec* values_b, const typename Traits::Vec* xa,
    const typename Traits::Vec* xb, typename Traits::Vec& ra,
    typename Traits::Vec& rb) {
  static_assert(L >= 1);
  if constexpr (L == 1) {
    const std::size_t offset = pair_offset<Traits, E>(table);
    ra = pick<Traits>(values_a, offset);
    rb = pick<Traits>(values_b, offset);
  } else {
    constexpr std::size_t kHalf = std::size_t{1} << (L - 1);
    typename Traits::Vec lo_a = {}, lo_b = {}, hi_a = {}, hi_b = {};
    shannon_subtree_x2<Traits, L - 1, E>(table, values_a, values_b, xa, xb,
                                         lo_a, lo_b);
    shannon_subtree_x2<Traits, L - 1, E + kHalf>(table, values_a, values_b,
                                                 xa, xb, hi_a, hi_b);
    ra = Traits::mux(lo_a, hi_a, xa[L - 1]);
    rb = Traits::mux(lo_b, hi_b, xb[L - 1]);
  }
}

// Arity L <= kSubtreeBits: one unrolled subtree per pair of blocks, and
// per block for an odd last one.
template <class Traits, std::size_t L>
void shannon_blocks(const std::uint64_t* table,
                    const std::uint64_t* const* columns, std::size_t offset,
                    std::size_t blocks, std::uint64_t* out) {
  using Vec = typename Traits::Vec;
  constexpr std::size_t kBlock = Traits::kBlock;
  constexpr std::size_t kLevels = L == 0 ? 1 : L;
  std::size_t blk = 0;
  for (; blk + 2 <= blocks; blk += 2) {
    const std::size_t w = offset + blk * kBlock;
    Vec xa[kLevels] = {};
    Vec xb[kLevels] = {};
    for (std::size_t j = 0; j < L; ++j) {
      xa[j] = Traits::load(columns[j] + w);
      xb[j] = Traits::load(columns[j] + w + kBlock);
    }
    Vec values[8];
    set_pair_values<Traits>(xa[0], values);
    set_pair_values<Traits>(xb[0], values + 4);
    Vec ra = {};
    Vec rb = {};
    shannon_subtree_x2<Traits, kLevels>(table, values, values + 4, xa, xb, ra,
                                        rb);
    Traits::store(out + blk * kBlock, ra);
    Traits::store(out + (blk + 1) * kBlock, rb);
  }
  if (blk < blocks) {
    const std::size_t w = offset + blk * kBlock;
    Vec x[kLevels] = {};
    for (std::size_t j = 0; j < L; ++j) x[j] = Traits::load(columns[j] + w);
    Vec values[4];
    set_pair_values<Traits>(x[0], values);
    Traits::store(out + blk * kBlock,
                  shannon_subtree<Traits, kLevels>(table, values, x));
  }
}

// Arity above kSubtreeBits: 64-entry subtrees folded through the level
// stack (see the file comment).
template <class Traits>
void shannon_blocks_wide(const std::uint64_t* table, std::size_t arity,
                         const std::uint64_t* const* columns,
                         std::size_t offset, std::size_t blocks,
                         std::uint64_t* out) {
  using Vec = typename Traits::Vec;
  const std::size_t n_subtrees = std::size_t{1} << (arity - kSubtreeBits);
  const std::size_t n_high = arity - kSubtreeBits;
  // The subtree inputs are indexed only by constants, so they stay in
  // registers; the stack levels' inputs are indexed at run time.
  Vec low[kSubtreeBits] = {};
  Vec high[kMaxLutArity - kSubtreeBits] = {};
  Vec pending[kMaxLutArity - kSubtreeBits + 1] = {};
  Vec values[4];
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t w = offset + blk * Traits::kBlock;
    for (std::size_t j = 0; j < kSubtreeBits; ++j) {
      low[j] = Traits::load(columns[j] + w);
    }
    for (std::size_t j = 0; j < n_high; ++j) {
      high[j] = Traits::load(columns[kSubtreeBits + j] + w);
    }
    set_pair_values<Traits>(low[0], values);
    Vec v = shannon_subtree<Traits, kSubtreeBits>(table, values, low);
    pending[0] = v;
    for (std::size_t s = 1; s < n_subtrees; ++s) {
      // A 64-entry subtree is exactly one table word.
      v = shannon_subtree<Traits, kSubtreeBits>(table + s, values, low);
      std::size_t level = 0;
      for (; ((s >> level) & 1u) != 0; ++level) {
        v = Traits::mux(pending[level], v, high[level]);
      }
      pending[level] = v;
    }
    Traits::store(out + blk * Traits::kBlock, v);
  }
}

template <class Traits>
void shannon_dispatch(const std::uint64_t* table, std::size_t arity,
                      const std::uint64_t* const* columns, std::size_t offset,
                      std::size_t blocks, std::uint64_t* out) {
  switch (arity) {
    case 0:
      shannon_blocks<Traits, 0>(table, columns, offset, blocks, out);
      break;
    case 1:
      shannon_blocks<Traits, 1>(table, columns, offset, blocks, out);
      break;
    case 2:
      shannon_blocks<Traits, 2>(table, columns, offset, blocks, out);
      break;
    case 3:
      shannon_blocks<Traits, 3>(table, columns, offset, blocks, out);
      break;
    case 4:
      shannon_blocks<Traits, 4>(table, columns, offset, blocks, out);
      break;
    case 5:
      shannon_blocks<Traits, 5>(table, columns, offset, blocks, out);
      break;
    case 6:
      shannon_blocks<Traits, 6>(table, columns, offset, blocks, out);
      break;
    default:
      shannon_blocks_wide<Traits>(table, arity, columns, offset, blocks, out);
      break;
  }
}

// WordOps::lut_reduce for one backend. A ragged tail of fewer than kBlock
// words runs as one more block over zero-padded copies of its input words:
// a short call (a 64-row serving window, a small chunk's classifier pass)
// costs one vector block rather than a reduction per word.
template <class Traits>
void shannon_lut_reduce(const std::uint64_t* table, std::size_t arity,
                        const std::uint64_t* const* columns, std::size_t base,
                        std::size_t word_begin, std::size_t word_end,
                        std::uint64_t* out) {
  constexpr std::size_t kBlock = Traits::kBlock;
  const std::size_t n_words = word_end - word_begin;
  const std::size_t blocks = n_words / kBlock;
  const std::size_t offset = word_begin - base;
  shannon_dispatch<Traits>(table, arity, columns, offset, blocks, out);
  const std::size_t done = blocks * kBlock;
  const std::size_t rest = n_words - done;
  if (rest == 0) return;
  // Rows j < arity are written in full before the block reads them;
  // zeroing all kMaxLutArity rows would cost more than a short call's
  // reduction.
  std::uint64_t tail_in[kMaxLutArity][kBlock];
  const std::uint64_t* tail_columns[kMaxLutArity];
  for (std::size_t j = 0; j < arity; ++j) {
    std::copy_n(columns[j] + offset + done, rest, tail_in[j]);
    std::fill(tail_in[j] + rest, tail_in[j] + kBlock, 0);
    tail_columns[j] = tail_in[j];
  }
  std::uint64_t tail_out[kBlock] = {};
  shannon_dispatch<Traits>(table, arity, tail_columns, 0, 1, tail_out);
  std::copy_n(tail_out, rest, out + done);
}

}  // namespace poetbin::word_impl
