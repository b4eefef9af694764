// scalar64 backend: one 64-bit word per step, and the fallback on hosts
// without a SIMD backend. Its LUT reduction is the shared Shannon kernel
// (util/word_backend_shannon.h) at a width of one word; the other kernels
// are the shared scalar bodies in word_backend_impl.h.
#include <cstdint>

#include "util/word_backend.h"
#include "util/word_backend_impl.h"
#include "util/word_backend_shannon.h"

namespace poetbin {

namespace {

// One-word traits for the shared Shannon reduction.
struct Scalar64Traits {
  using Vec = std::uint64_t;
  static constexpr std::size_t kBlock = 1;
  static Vec load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, Vec v) { *p = v; }
  static Vec bit_not(Vec v) { return ~v; }
  // f0 ^ ((f0 ^ f1) & x): bitwise select x ? f1 : f0.
  static Vec mux(Vec f0, Vec f1, Vec x) { return f0 ^ ((f0 ^ f1) & x); }
};

}  // namespace

const WordOps& scalar64_word_ops() {
  static const WordOps ops = {
      .kind = WordBackend::kScalar64,
      .lut_reduce = word_impl::shannon_lut_reduce<Scalar64Traits>,
      .gather_bits = word_impl::gather_bits,
      .lut_lookup = word_impl::lut_lookup,
      .hamming_words = word_impl::hamming_words,
      .argmax_update = word_impl::argmax_update,
      .scale_by_mask = word_impl::scale_by_mask,
  };
  return ops;
}

}  // namespace poetbin
