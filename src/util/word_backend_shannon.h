// Internal: the register-resident Shannon LUT reduction shared by the SIMD
// word backends.
//
// A backend describes its vector type with a traits struct
//
//   struct Traits {
//     using Vec = ...;                            // kBlock 64-bit words
//     static constexpr std::size_t kBlock = ...;
//     static Vec load(const std::uint64_t* p);    // unaligned
//     static void store(std::uint64_t* p, Vec v); // unaligned
//     static Vec splat(const std::uint64_t* p);   // broadcast one word
//     static Vec mux(Vec f0, Vec f1, Vec x);      // bitwise x ? f1 : f0
//   };
//
// declared in an anonymous namespace of its own TU (so every instantiation
// below has internal linkage and is compiled with that TU's ISA flags), and
// points WordOps::lut_reduce at word_impl::simd_lut_reduce<Traits>.
//
// The reduction is depth-first. A subtree of up to six address bits is
// unrolled at compile time: each leaf is a table entry, each internal node
// one mux, so a 64-entry subtree lives in registers from the broadcasts to
// its single result. Tables are compact (one bit per entry); entry e is
// broadcast from kExpand[table byte e / 8][e % 8], a 16 KiB constant of
// 0 / ~0 words, so a leaf is still one load-port broadcast and nothing is
// expanded per call.
// Tables of up to six inputs reduce two blocks per subtree walk, sharing
// each broadcast.
// Wider tables are walked as consecutive 64-entry subtrees whose results
// fold through a small stack indexed by address level: subtree s merges
// with the pending result of every level whose bit is set in s, the carry
// chain of a binary counter. Every output word still costs exactly the
// 2^arity - 1 muxes of the breadth-first scalar reduction, and a mux is
// exact bitwise logic, so results are bit-identical to scalar64 — but no
// table is copied per call and no intermediate level round-trips through
// memory.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "util/word_backend.h"

namespace poetbin::word_impl {

// Address bits reduced by one compile-time-unrolled subtree.
inline constexpr std::size_t kSubtreeBits = 6;

// kExpand[b][i] is ~0 when bit i of byte b is set, else 0.
alignas(64) inline constexpr auto kExpand = [] {
  std::array<std::array<std::uint64_t, 8>, 256> expand{};
  for (std::size_t b = 0; b < 256; ++b) {
    for (std::size_t i = 0; i < 8; ++i) {
      expand[b][i] = ((b >> i) & 1u) != 0 ? ~std::uint64_t{0} : 0;
    }
  }
  return expand;
}();

// Broadcast of table entry E (compile time) of the compact table `table`.
template <class Traits, std::size_t E>
[[gnu::always_inline]] inline typename Traits::Vec entry(
    const std::uint64_t* table) {
  const std::size_t byte = (table[E >> 6] >> (E & 56)) & 0xFF;
  return Traits::splat(&kExpand[byte][E & 7]);
}

// Reduces table entries [E, E + 2^L) over inputs x[0..L).
template <class Traits, std::size_t L, std::size_t E = 0>
[[gnu::always_inline]] inline typename Traits::Vec shannon_subtree(
    const std::uint64_t* table, const typename Traits::Vec* x) {
  if constexpr (L == 0) {
    return entry<Traits, E>(table);
  } else {
    constexpr std::size_t kHalf = std::size_t{1} << (L - 1);
    const typename Traits::Vec lo = shannon_subtree<Traits, L - 1, E>(table, x);
    const typename Traits::Vec hi =
        shannon_subtree<Traits, L - 1, E + kHalf>(table, x);
    return Traits::mux(lo, hi, x[L - 1]);
  }
}

// Two blocks' subtrees side by side: each broadcast table entry feeds
// both, so the broadcasts no longer outnumber the muxes.
template <class Traits, std::size_t L, std::size_t E = 0>
[[gnu::always_inline]] inline void shannon_subtree_x2(
    const std::uint64_t* table, const typename Traits::Vec* xa,
    const typename Traits::Vec* xb, typename Traits::Vec& ra,
    typename Traits::Vec& rb) {
  if constexpr (L == 0) {
    ra = entry<Traits, E>(table);
    rb = ra;
  } else {
    constexpr std::size_t kHalf = std::size_t{1} << (L - 1);
    typename Traits::Vec lo_a = {}, lo_b = {}, hi_a = {}, hi_b = {};
    shannon_subtree_x2<Traits, L - 1, E>(table, xa, xb, lo_a, lo_b);
    shannon_subtree_x2<Traits, L - 1, E + kHalf>(table, xa, xb, hi_a, hi_b);
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
  constexpr std::size_t kInputs = L == 0 ? 1 : L;
  std::size_t blk = 0;
  for (; blk + 2 <= blocks; blk += 2) {
    const std::size_t w = offset + blk * kBlock;
    Vec xa[kInputs] = {};
    Vec xb[kInputs] = {};
    for (std::size_t j = 0; j < L; ++j) {
      xa[j] = Traits::load(columns[j] + w);
      xb[j] = Traits::load(columns[j] + w + kBlock);
    }
    Vec ra = {};
    Vec rb = {};
    shannon_subtree_x2<Traits, L>(table, xa, xb, ra, rb);
    Traits::store(out + blk * kBlock, ra);
    Traits::store(out + (blk + 1) * kBlock, rb);
  }
  if (blk < blocks) {
    const std::size_t w = offset + blk * kBlock;
    Vec x[kInputs] = {};
    for (std::size_t j = 0; j < L; ++j) x[j] = Traits::load(columns[j] + w);
    Traits::store(out + blk * kBlock, shannon_subtree<Traits, L>(table, x));
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
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t w = offset + blk * Traits::kBlock;
    for (std::size_t j = 0; j < kSubtreeBits; ++j) {
      low[j] = Traits::load(columns[j] + w);
    }
    for (std::size_t j = 0; j < n_high; ++j) {
      high[j] = Traits::load(columns[kSubtreeBits + j] + w);
    }
    Vec v = shannon_subtree<Traits, kSubtreeBits>(table, low);
    pending[0] = v;
    for (std::size_t s = 1; s < n_subtrees; ++s) {
      // A 64-entry subtree is exactly one table word.
      v = shannon_subtree<Traits, kSubtreeBits>(table + s, low);
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

// WordOps::lut_reduce for a SIMD backend. A ragged tail of fewer than
// kBlock words runs as one more block over zero-padded copies of its input
// words: a short call (a 64-row serving window, a small chunk's classifier
// pass) costs one vector block rather than a scalar reduction per word.
template <class Traits>
void simd_lut_reduce(const std::uint64_t* table, std::size_t arity,
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
