// AVX2 backend: four 64-bit words (256 examples) per step.
//
// Only bitwise logic and elementwise double multiplies run at vector width,
// so every result is bit-identical to the scalar64 reference. The LUT
// reduction is the shared depth-first kernel (util/word_backend_shannon.h);
// argmax_update and scale_by_mask finish their ragged sub-block tails on
// the shared scalar bodies in word_backend_impl.h, and gather_bits,
// lut_lookup and hamming_words are those bodies outright (AVX2 has no
// byte permute across lanes, no 64-lane popcount). The bodies have
// internal linkage, so this TU's copies, built with -mavx2, serve only
// this table. Compiled with -mavx2 (see CMakeLists.txt) and only when the
// toolchain supports it; runtime CPUID dispatch lives in word_backend.cpp.
#include "util/word_backend.h"

#if defined(POETBIN_HAVE_AVX2)

#include <immintrin.h>

#include "util/word_backend_impl.h"
#include "util/word_backend_shannon.h"

namespace poetbin {

namespace {

constexpr std::size_t kBlock = 4;  // 64-bit words per __m256i

// Vector traits for the shared depth-first Shannon reduction
// (util/word_backend_shannon.h).
struct Avx2Traits {
  using Vec = __m256i;
  static constexpr std::size_t kBlock = 4;
  static Vec load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Vec bit_not(Vec v) {
    return _mm256_xor_si256(v, _mm256_set1_epi64x(-1));
  }
  // f0 ^ ((f0 ^ f1) & x): bitwise select x ? f1 : f0.
  static Vec mux(Vec f0, Vec f1, Vec x) {
    return _mm256_xor_si256(f0,
                            _mm256_and_si256(_mm256_xor_si256(f0, f1), x));
  }
};

void argmax_update_avx2(const std::uint64_t* const* cand_planes,
                        std::uint64_t* const* best_planes,
                        std::size_t n_planes,
                        std::uint64_t* const* class_planes,
                        std::size_t n_class_planes, std::uint32_t class_index,
                        std::size_t n_words) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    __m256i gt = _mm256_setzero_si256();
    __m256i eq = ones;
    for (std::size_t p = n_planes; p-- > 0;) {
      const __m256i c = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cand_planes[p] + w));
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(best_planes[p] + w));
      gt = _mm256_or_si256(
          gt, _mm256_and_si256(eq, _mm256_andnot_si256(b, c)));
      eq = _mm256_andnot_si256(_mm256_xor_si256(c, b), eq);
    }
    for (std::size_t p = 0; p < n_planes; ++p) {
      const __m256i c = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cand_planes[p] + w));
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(best_planes[p] + w));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(best_planes[p] + w),
          _mm256_or_si256(_mm256_andnot_si256(gt, b),
                          _mm256_and_si256(gt, c)));
    }
    for (std::size_t q = 0; q < n_class_planes; ++q) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(class_planes[q] + w));
      const __m256i updated = ((class_index >> q) & 1u) != 0
                                  ? _mm256_or_si256(v, gt)
                                  : _mm256_andnot_si256(gt, v);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(class_planes[q] + w),
                          updated);
    }
  }
  word_impl::argmax_update_from(cand_planes, best_planes, n_planes,
                                class_planes, n_class_planes, class_index, w,
                                n_words);
}

void scale_by_mask_avx2(const std::uint64_t* bits, std::size_t n_bits,
                        double factor0, double factor1, double* weights) {
  const __m256d f0v = _mm256_set1_pd(factor0);
  const __m256d f1v = _mm256_set1_pd(factor1);
  const std::size_t full_words = n_bits / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const __m256i word = _mm256_set1_epi64x(static_cast<long long>(bits[w]));
    __m256i sel = _mm256_setr_epi64x(1, 2, 4, 8);
    for (std::size_t g = 0; g < 16; ++g) {
      // All-ones lane exactly where the lane's bit is set in the word.
      const __m256i m =
          _mm256_cmpeq_epi64(_mm256_and_si256(word, sel), sel);
      const __m256d f = _mm256_blendv_pd(f0v, f1v, _mm256_castsi256_pd(m));
      double* p = weights + w * 64 + g * 4;
      _mm256_storeu_pd(p, _mm256_mul_pd(_mm256_loadu_pd(p), f));
      sel = _mm256_slli_epi64(sel, 4);
    }
  }
  word_impl::scale_by_mask(bits + full_words, n_bits - full_words * 64,
                           factor0, factor1, weights + full_words * 64);
}

}  // namespace

const WordOps& avx2_word_ops() {
  static const WordOps ops = {
      .kind = WordBackend::kAvx2,
      .lut_reduce = word_impl::shannon_lut_reduce<Avx2Traits>,
      .gather_bits = word_impl::gather_bits,
      .lut_lookup = word_impl::lut_lookup,
      .hamming_words = word_impl::hamming_words,
      .argmax_update = argmax_update_avx2,
      .scale_by_mask = scale_by_mask_avx2,
  };
  return ops;
}

}  // namespace poetbin

#endif  // POETBIN_HAVE_AVX2
