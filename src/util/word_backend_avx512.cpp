// AVX-512 backend: eight 64-bit words (512 examples) per step.
//
// The Shannon mux collapses to a single vpternlogq, the LUT reduction runs
// depth-first in registers (util/word_backend_shannon.h), and the Adaboost
// reweight blend uses the native 8-bit lane masks. As with AVX2,
// everything is exact bitwise logic or elementwise IEEE multiplies, so the
// results are bit-identical to scalar64; the other ops' ragged tails fall
// through to this TU's internal copies of the shared scalar bodies
// (word_backend_impl.h). Compiled with -mavx512f -mavx512bw -mavx512vl and
// dispatched at runtime in word_backend.cpp.
#include "util/word_backend.h"

#if defined(POETBIN_HAVE_AVX512)

#if defined(__GNUC__) && !defined(__clang__)
// GCC's _mm512_undefined_epi32() is self-initialized (__Y = __Y), which
// trips -Wmaybe-uninitialized through _mm512_andnot_si512 (GCC PR105593).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "util/word_backend_impl.h"
#include "util/word_backend_shannon.h"

namespace poetbin {

namespace {

constexpr std::size_t kBlock = 8;  // 64-bit words per __m512i

// vpternlogq imm for "x ? f1 : f0" with operands (f0, f1, x): the index is
// (f0_bit << 2) | (f1_bit << 1) | x_bit, so the truth table is 0b11011000.
constexpr int kMuxImm = 0xD8;

inline __m512i avx512_mux(__m512i f0, __m512i f1, __m512i x) {
  return _mm512_ternarylogic_epi64(f0, f1, x, kMuxImm);
}

// vpternlogq imm for "~c": index 0 (all operands clear) maps to 1, index 7
// to 0, and the operands are one register.
constexpr int kNotImm = 0x55;

// Vector traits for the shared depth-first Shannon reduction
// (util/word_backend_shannon.h). An entry pair's pick is a load from the
// stack-resident pair values, so it issues beside the vpternlogq muxes.
struct Avx512Traits {
  using Vec = __m512i;
  static constexpr std::size_t kBlock = 8;
  static Vec load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  static void store(std::uint64_t* p, Vec v) { _mm512_storeu_si512(p, v); }
  static Vec bit_not(Vec v) {
    return _mm512_ternarylogic_epi64(v, v, v, kNotImm);
  }
  static Vec mux(Vec f0, Vec f1, Vec x) { return avx512_mux(f0, f1, x); }
};

void argmax_update_avx512(const std::uint64_t* const* cand_planes,
                          std::uint64_t* const* best_planes,
                          std::size_t n_planes,
                          std::uint64_t* const* class_planes,
                          std::size_t n_class_planes,
                          std::uint32_t class_index, std::size_t n_words) {
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    __m512i gt = _mm512_setzero_si512();
    __m512i eq = _mm512_set1_epi64(-1);
    for (std::size_t p = n_planes; p-- > 0;) {
      const __m512i c = _mm512_loadu_si512(cand_planes[p] + w);
      const __m512i b = _mm512_loadu_si512(best_planes[p] + w);
      gt = _mm512_or_si512(
          gt, _mm512_and_si512(eq, _mm512_andnot_si512(b, c)));
      eq = _mm512_andnot_si512(_mm512_xor_si512(c, b), eq);
    }
    for (std::size_t p = 0; p < n_planes; ++p) {
      const __m512i c = _mm512_loadu_si512(cand_planes[p] + w);
      const __m512i b = _mm512_loadu_si512(best_planes[p] + w);
      // b ^ ((b ^ c) & gt): select c where gt — the same mux as the LUT path.
      _mm512_storeu_si512(best_planes[p] + w, avx512_mux(b, c, gt));
    }
    for (std::size_t q = 0; q < n_class_planes; ++q) {
      const __m512i v = _mm512_loadu_si512(class_planes[q] + w);
      const __m512i updated = ((class_index >> q) & 1u) != 0
                                  ? _mm512_or_si512(v, gt)
                                  : _mm512_andnot_si512(gt, v);
      _mm512_storeu_si512(class_planes[q] + w, updated);
    }
  }
  word_impl::argmax_update_from(cand_planes, best_planes, n_planes,
                                class_planes, n_class_planes, class_index, w,
                                n_words);
}

void scale_by_mask_avx512(const std::uint64_t* bits, std::size_t n_bits,
                          double factor0, double factor1, double* weights) {
  const __m512d f0v = _mm512_set1_pd(factor0);
  const __m512d f1v = _mm512_set1_pd(factor1);
  const std::size_t full_words = n_bits / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const std::uint64_t word = bits[w];
    for (std::size_t g = 0; g < 8; ++g) {
      const __mmask8 m = static_cast<__mmask8>(word >> (g * 8));
      const __m512d f = _mm512_mask_blend_pd(m, f0v, f1v);
      double* p = weights + w * 64 + g * 8;
      _mm512_storeu_pd(p, _mm512_mul_pd(_mm512_loadu_pd(p), f));
    }
  }
  word_impl::scale_by_mask(bits + full_words, n_bits - full_words * 64,
                           factor0, factor1, weights + full_words * 64);
}

// Eight LUTs per step: widen their address bytes to qword lanes, load
// each lane's table word (a merge-masked load per further plane, keyed on
// address bits 6-7), shift the addressed bit down and test it.
void lut_lookup_avx512(const std::uint8_t* address,
                       const std::uint64_t* planes, std::size_t arity,
                       std::size_t n_luts, std::uint64_t* out) {
  const std::size_t stride = (n_luts + 7) / 8 * 8;
  const std::size_t n_planes = arity > 6 ? std::size_t{1} << (arity - 6) : 1;
  const __m512i mask = _mm512_set1_epi64((1 << arity) - 1);
  const __m512i low6 = _mm512_set1_epi64(63);
  const __m512i one = _mm512_set1_epi64(1);
  std::uint64_t acc = 0;
  for (std::size_t t = 0; t < stride; t += 8) {
    const __m512i a = _mm512_and_si512(
        _mm512_cvtepu8_epi64(_mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(address + t))),
        mask);
    __m512i word = _mm512_loadu_si512(planes + t);
    if (n_planes > 1) {
      const __m512i plane = _mm512_srli_epi64(a, 6);
      for (std::size_t j = 1; j < n_planes; ++j) {
        const __mmask8 pick = _mm512_cmpeq_epi64_mask(
            plane, _mm512_set1_epi64(static_cast<long long>(j)));
        word = _mm512_mask_loadu_epi64(word, pick, planes + j * stride + t);
      }
    }
    const __mmask8 bits = _mm512_test_epi64_mask(
        _mm512_srlv_epi64(word, _mm512_and_si512(a, low6)), one);
    acc |= std::uint64_t{bits} << (t & 63);
    if ((t & 63) == 56) {
      out[t >> 6] = acc;
      acc = 0;
    }
  }
  if ((stride & 63) != 0) out[stride >> 6] = acc;
}

}  // namespace

#if defined(POETBIN_HAVE_AVX512VBMI)
// Defined in word_backend_avx512vbmi.cpp (the only TU compiled with
// -mavx512vbmi -mavx512bitalg); selected below only when CPUID reports both.
void avx512_vbmi_gather_bits(const std::uint8_t* src, std::size_t src_bytes,
                             const std::uint64_t* index,
                             const std::uint8_t* select, std::size_t n_groups,
                             std::uint64_t* out);
#endif

#if defined(POETBIN_HAVE_AVX512VPOPCNT)
// Defined in word_backend_avx512popcnt.cpp (the only TU compiled with
// -mavx512vpopcntdq); selected below only when CPUID reports vpopcntdq.
std::size_t avx512_vpopcnt_hamming_words(const std::uint64_t* a,
                                         const std::uint64_t* b,
                                         std::size_t n_words);
#endif

const WordOps& avx512_word_ops() {
  static const WordOps ops = [] {
    WordOps table = {
        .kind = WordBackend::kAvx512,
        .lut_reduce = word_impl::shannon_lut_reduce<Avx512Traits>,
        // The scalar loop unless VBMI + BITALG upgrade it below.
        .gather_bits = word_impl::gather_bits,
        .lut_lookup = lut_lookup_avx512,
        // The scalar loop unless vpopcntdq upgrades it below — both are
        // exact integer counts, so bit-identical either way.
        .hamming_words = word_impl::hamming_words,
        .argmax_update = argmax_update_avx512,
        .scale_by_mask = scale_by_mask_avx512,
    };
#if defined(POETBIN_HAVE_AVX512VPOPCNT)
    // vpopcntdq is a separate ISA extension from avx512f/bw/vl (Ice
    // Lake+); gate on its own CPUID bit so avx512f-only machines keep the
    // scalar loop.
    if (__builtin_cpu_supports("avx512vpopcntdq")) {
      table.hamming_words = avx512_vpopcnt_hamming_words;
    }
#endif
#if defined(POETBIN_HAVE_AVX512VBMI)
    // VBMI (vpermb) and BITALG (vpshufbitqmb) are separate extensions
    // (Ice Lake+); both must be present for the gather body.
    if (__builtin_cpu_supports("avx512vbmi") &&
        __builtin_cpu_supports("avx512bitalg")) {
      table.gather_bits = avx512_vbmi_gather_bits;
    }
#endif
    return table;
  }();
  return ops;
}

}  // namespace poetbin

#endif  // POETBIN_HAVE_AVX512
