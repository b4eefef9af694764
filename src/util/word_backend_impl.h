// Internal: scalar (64-bit word) kernel bodies shared by the backends.
//
// The scalar64 backend points its table at these; the SIMD backends call
// them for the ragged sub-block tail of each range and use them outright
// for the kernels they do not widen, so every backend's remainder path is
// literally the scalar64 loop. lut_reduce is not here: every backend,
// scalar64 included, instantiates the one Shannon kernel in
// util/word_backend_shannon.h. Not part of the public surface — include
// only from word_backend*.cpp.
//
// Every body has internal linkage (the unnamed namespace below). Each
// backend TU is compiled with its own ISA flags, so an `inline` body with
// external linkage would be emitted as a weak symbol in every TU that uses
// it, and the linker would keep one copy for all of them: scalar64 could
// end up running the copy built with -mavx2 or -mavx512f and fault on a
// CPU without those instructions. With internal linkage each TU's table
// points at its own copy, compiled with its own flags;
// tools/check_isa_objects.py fails the build's tests if a weak poetbin::
// function reappears in an ISA-flagged object.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace poetbin::word_impl {
namespace {

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

inline std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n_words) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < n_words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

// MSB-first bitwise comparator over code planes for words
// [w_begin, n_words); see WordOps::argmax_update. The SIMD backends finish
// their ragged tail through it, so every remainder path is this loop.
inline void argmax_update_from(const std::uint64_t* const* cand_planes,
                               std::uint64_t* const* best_planes,
                               std::size_t n_planes,
                               std::uint64_t* const* class_planes,
                               std::size_t n_class_planes,
                               std::uint32_t class_index, std::size_t w_begin,
                               std::size_t n_words) {
  for (std::size_t w = w_begin; w < n_words; ++w) {
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

inline void argmax_update(const std::uint64_t* const* cand_planes,
                          std::uint64_t* const* best_planes,
                          std::size_t n_planes,
                          std::uint64_t* const* class_planes,
                          std::size_t n_class_planes, std::uint32_t class_index,
                          std::size_t n_words) {
  argmax_update_from(cand_planes, best_planes, n_planes, class_planes,
                     n_class_planes, class_index, 0, n_words);
}

inline void scale_by_mask(const std::uint64_t* bits, std::size_t n_bits,
                          double factor0, double factor1, double* weights) {
  const double factor[2] = {factor0, factor1};
  for (std::size_t i = 0; i < n_bits; ++i) {
    weights[i] *= factor[(bits[i >> 6] >> (i & 63)) & 1u];
  }
}

}  // namespace
}  // namespace poetbin::word_impl
