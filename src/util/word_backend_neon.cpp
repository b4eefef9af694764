// NEON (AdvSIMD) backend for arm64: two 64-bit words (128 examples) per
// step.
//
// Only bitwise logic runs at vector width, so every result is bit-identical
// to the scalar64 reference. The LUT reduction is the shared depth-first
// kernel (util/word_backend_shannon.h), and argmax_update finishes its
// ragged sub-block tail on the shared scalar body in word_backend_impl.h.
// gather_bits, lut_lookup, hamming_words (CNT+ADDV inline on arm64) and
// scale_by_mask are the scalar bodies outright; they have internal
// linkage, so this TU's copies serve only this table. Compiled with
// -march=armv8-a in its own TU (see CMakeLists.txt) and only for aarch64
// targets; the runtime hwcap probe lives in word_backend.cpp.
#include "util/word_backend.h"

#if defined(POETBIN_HAVE_NEON)

#include <arm_neon.h>

#include "util/word_backend_impl.h"
#include "util/word_backend_shannon.h"

namespace poetbin {

namespace {

constexpr std::size_t kBlock = 2;  // 64-bit words per uint64x2_t

// Vector traits for the shared depth-first Shannon reduction
// (util/word_backend_shannon.h). The mux is one BSL.
struct NeonTraits {
  using Vec = uint64x2_t;
  static constexpr std::size_t kBlock = 2;
  static Vec load(const std::uint64_t* p) { return vld1q_u64(p); }
  static void store(std::uint64_t* p, Vec v) { vst1q_u64(p, v); }
  static Vec bit_not(Vec v) {
    return vreinterpretq_u64_u8(vmvnq_u8(vreinterpretq_u8_u64(v)));
  }
  // vbsl: bits of f1 where x is set, bits of f0 elsewhere.
  static Vec mux(Vec f0, Vec f1, Vec x) { return vbslq_u64(x, f1, f0); }
};

void argmax_update_neon(const std::uint64_t* const* cand_planes,
                        std::uint64_t* const* best_planes,
                        std::size_t n_planes,
                        std::uint64_t* const* class_planes,
                        std::size_t n_class_planes, std::uint32_t class_index,
                        std::size_t n_words) {
  const uint64x2_t ones = vdupq_n_u64(~0ULL);
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    uint64x2_t gt = vdupq_n_u64(0);
    uint64x2_t eq = ones;
    for (std::size_t p = n_planes; p-- > 0;) {
      const uint64x2_t c = vld1q_u64(cand_planes[p] + w);
      const uint64x2_t b = vld1q_u64(best_planes[p] + w);
      // gt |= eq & (c & ~b); eq &= ~(c ^ b). vbic(x, y) = x & ~y.
      gt = vorrq_u64(gt, vandq_u64(eq, vbicq_u64(c, b)));
      eq = vbicq_u64(eq, veorq_u64(c, b));
    }
    for (std::size_t p = 0; p < n_planes; ++p) {
      const uint64x2_t c = vld1q_u64(cand_planes[p] + w);
      const uint64x2_t b = vld1q_u64(best_planes[p] + w);
      // vbsl: bits of c where gt is set, bits of b elsewhere.
      vst1q_u64(best_planes[p] + w, vbslq_u64(gt, c, b));
    }
    for (std::size_t q = 0; q < n_class_planes; ++q) {
      const uint64x2_t v = vld1q_u64(class_planes[q] + w);
      const uint64x2_t updated = ((class_index >> q) & 1u) != 0
                                     ? vorrq_u64(v, gt)
                                     : vbicq_u64(v, gt);
      vst1q_u64(class_planes[q] + w, updated);
    }
  }
  word_impl::argmax_update_from(cand_planes, best_planes, n_planes,
                                class_planes, n_class_planes, class_index, w,
                                n_words);
}

}  // namespace

const WordOps& neon_word_ops() {
  static const WordOps ops = {
      .kind = WordBackend::kNeon,
      .lut_reduce = word_impl::shannon_lut_reduce<NeonTraits>,
      .gather_bits = word_impl::gather_bits,
      .lut_lookup = word_impl::lut_lookup,
      .hamming_words = word_impl::hamming_words,
      .argmax_update = argmax_update_neon,
      .scale_by_mask = word_impl::scale_by_mask,
  };
  return ops;
}

}  // namespace poetbin

#endif  // POETBIN_HAVE_NEON
