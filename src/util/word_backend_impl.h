// Internal: scalar (64-bit word) kernel bodies shared by the backends.
//
// The scalar64 backend calls these directly; the SIMD backends call them
// for the ragged sub-block tail of each range (except lut_reduce, whose
// tail runs as one zero-padded vector block, util/word_backend_shannon.h).
// Keeping one definition guarantees every backend's remainder path is
// literally the reference implementation, and shannon_reduce stays the
// LUT oracle every backend is tested against. Not part of the public
// surface — include only from word_backend*.cpp.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dt/entropy.h"
#include "util/aligned_vector.h"

namespace poetbin::word_impl {

// Table entry `e` of a compact truth table as a 0 / ~0 word.
inline std::uint64_t entry_word(const std::uint64_t* table, std::size_t e) {
  return std::uint64_t{0} - ((table[e >> 6] >> (e & 63)) & 1u);
}

// One word of LUT output from `arity` input words: iteratively
// Shannon-reduce the truth table over address bit 0, then 1, ...
// Each step is the bitwise mux f0 ^ ((f0 ^ f1) & x) applied to adjacent
// half-tables, so the whole evaluation is 2^arity - 1 word muxes and touches
// no per-example state. `table` holds the 2^arity entries one bit each;
// `scratch` must hold at least 2^(arity-1) words (unused when arity == 0).
inline std::uint64_t shannon_reduce(const std::uint64_t* table,
                                    std::size_t arity, const std::uint64_t* in,
                                    std::uint64_t* scratch) {
  if (arity == 0) return entry_word(table, 0);
  std::size_t half = std::size_t{1} << (arity - 1);
  const std::uint64_t x0 = in[0];
  for (std::size_t k = 0; k < half; ++k) {
    const std::uint64_t f0 = entry_word(table, 2 * k);
    const std::uint64_t f1 = entry_word(table, 2 * k + 1);
    scratch[k] = f0 ^ ((f0 ^ f1) & x0);
  }
  for (std::size_t j = 1; j < arity; ++j) {
    half >>= 1;
    const std::uint64_t x = in[j];
    for (std::size_t k = 0; k < half; ++k) {
      const std::uint64_t f0 = scratch[2 * k];
      const std::uint64_t f1 = scratch[2 * k + 1];
      scratch[k] = f0 ^ ((f0 ^ f1) & x);
    }
  }
  return scratch[0];
}

inline void gather_bits(const std::uint8_t* src, std::size_t /*src_bytes*/,
                        const std::uint64_t* index, const std::uint8_t* select,
                        std::size_t n_groups, std::uint64_t* out) {
  for (std::size_t g = 0; g < n_groups; ++g, index += 32, select += 64) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 64; ++k) {
      const auto i = static_cast<std::uint32_t>(index[k / 2] >> (32 * (k % 2)));
      word |= std::uint64_t{(src[i] >> (select[k] & 7u)) & 1u} << k;
    }
    out[g] = word;
  }
}

inline void lut_lookup(const std::uint8_t* address,
                       const std::uint64_t* planes, std::size_t arity,
                       std::size_t n_luts, std::uint64_t* out) {
  const std::size_t stride = (n_luts + 7) / 8 * 8;
  const unsigned mask = (1u << arity) - 1;
  std::uint64_t acc = 0;
  for (std::size_t t = 0; t < n_luts; ++t) {
    const unsigned a = address[t] & mask;
    acc |= ((planes[(a >> 6) * stride + t] >> (a & 63)) & 1u) << (t & 63);
    if ((t & 63) == 63) {
      out[t >> 6] = acc;
      acc = 0;
    }
  }
  if ((n_luts & 63) != 0) out[n_luts >> 6] = acc;
}

inline void lut_reduce(const std::uint64_t* table, std::size_t arity,
                       const std::uint64_t* const* columns, std::size_t base,
                       std::size_t word_begin, std::size_t word_end,
                       std::uint64_t* out) {
  // Reused across calls: one allocation per thread, not one per chunk.
  static thread_local WordVec scratch;
  static thread_local WordVec in;
  const std::size_t half = arity == 0 ? 0 : (std::size_t{1} << (arity - 1));
  if (scratch.size() < half) scratch.resize(half);
  if (in.size() < arity) in.resize(arity);
  for (std::size_t w = word_begin; w < word_end; ++w) {
    for (std::size_t j = 0; j < arity; ++j) in[j] = columns[j][w - base];
    out[w - word_begin] =
        shannon_reduce(table, arity, in.data(), scratch.data());
  }
}

inline void and_words(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) dst[w] = a[w] & b[w];
}

inline void or_words(const std::uint64_t* a, const std::uint64_t* b,
                     std::uint64_t* dst, std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) dst[w] = a[w] | b[w];
}

inline void xor_words(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) dst[w] = a[w] ^ b[w];
}

inline void not_words(const std::uint64_t* a, std::uint64_t* dst,
                      std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) dst[w] = ~a[w];
}

inline std::size_t popcount_words(const std::uint64_t* a, std::size_t n_words) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n_words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w]));
  }
  return total;
}

inline std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n_words) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n_words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

// MSB-first bitwise comparator over code planes; see WordOps::argmax_update.
inline void argmax_update(const std::uint64_t* const* cand_planes,
                          std::uint64_t* const* best_planes,
                          std::size_t n_planes,
                          std::uint64_t* const* class_planes,
                          std::size_t n_class_planes, std::uint32_t class_index,
                          std::size_t n_words) {
  for (std::size_t w = 0; w < n_words; ++w) {
    std::uint64_t gt = 0;
    std::uint64_t eq = ~0ULL;
    for (std::size_t p = n_planes; p-- > 0;) {
      const std::uint64_t c = cand_planes[p][w];
      const std::uint64_t b = best_planes[p][w];
      gt |= eq & c & ~b;
      eq &= ~(c ^ b);
    }
    for (std::size_t p = 0; p < n_planes; ++p) {
      best_planes[p][w] =
          (best_planes[p][w] & ~gt) | (cand_planes[p][w] & gt);
    }
    for (std::size_t q = 0; q < n_class_planes; ++q) {
      if ((class_index >> q) & 1u) {
        class_planes[q][w] |= gt;
      } else {
        class_planes[q][w] &= ~gt;
      }
    }
  }
}

// Tail driver for SIMD argmax_update implementations: rebases every plane
// pointer by `offset` words and runs the scalar comparator on the
// remainder. Single-sourced so the AVX2/AVX-512 remainder paths cannot
// diverge.
inline void argmax_update_tail(const std::uint64_t* const* cand_planes,
                               std::uint64_t* const* best_planes,
                               std::size_t n_planes,
                               std::uint64_t* const* class_planes,
                               std::size_t n_class_planes,
                               std::uint32_t class_index, std::size_t offset,
                               std::size_t n_words) {
  if (offset >= n_words) return;
  static thread_local std::vector<const std::uint64_t*> ctail;
  static thread_local std::vector<std::uint64_t*> btail;
  static thread_local std::vector<std::uint64_t*> qtail;
  ctail.resize(n_planes);
  btail.resize(n_planes);
  qtail.resize(n_class_planes);
  for (std::size_t p = 0; p < n_planes; ++p) {
    ctail[p] = cand_planes[p] + offset;
    btail[p] = best_planes[p] + offset;
  }
  for (std::size_t q = 0; q < n_class_planes; ++q) {
    qtail[q] = class_planes[q] + offset;
  }
  argmax_update(ctail.data(), btail.data(), n_planes, qtail.data(),
                n_class_planes, class_index, n_words - offset);
}

inline void scale_by_mask(const std::uint64_t* bits, std::size_t n_bits,
                          double factor0, double factor1, double* weights) {
  const double factor[2] = {factor0, factor1};
  for (std::size_t i = 0; i < n_bits; ++i) {
    weights[i] *= factor[(bits[i >> 6] >> (i & 63)) & 1u];
  }
}

// Every backend's entropy_sum is this one body: the per-node log2 is not an
// exact op, so widening it would break cross-backend bit-identity (see the
// WordOps declaration).
inline double entropy_sum(const double* pairs, std::size_t n_pairs,
                          double init) {
  return weighted_entropy_sum(pairs, n_pairs, init);
}

}  // namespace poetbin::word_impl
