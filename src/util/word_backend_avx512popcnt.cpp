// AVX-512 VPOPCNTDQ Hamming count: eight 64-bit popcounts per
// instruction, accumulated in integer lanes — exact, so bit-identical to
// the scalar body by construction.
//
// This TU is the only one compiled with -mavx512vpopcntdq; the avx512
// backend table (word_backend_avx512.cpp, which declares this entry
// point) selects it only when CPUID also reports vpopcntdq at runtime, so
// an avx512f-only machine keeps the scalar loop and never executes this.
#include "util/word_backend.h"

#if defined(POETBIN_HAVE_AVX512VPOPCNT)

#if defined(__GNUC__) && !defined(__clang__)
// GCC's _mm256_undefined_si256() (inside _mm512_reduce_add_epi64) is
// self-initialized (__Y = __Y), which trips -Wuninitialized /
// -Wmaybe-uninitialized (GCC PR105593) — same suppression as
// word_backend_avx512.cpp.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "util/word_backend_impl.h"

namespace poetbin {

namespace {

constexpr std::size_t kBlock = 8;  // 64-bit words per __m512i

}  // namespace

std::size_t avx512_vpopcnt_hamming_words(const std::uint64_t* a,
                                         const std::uint64_t* b,
                                         std::size_t n_words) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + kBlock <= n_words; w += kBlock) {
    const __m512i diff = _mm512_xor_si512(_mm512_loadu_si512(a + w),
                                          _mm512_loadu_si512(b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(diff));
  }
  return static_cast<std::size_t>(_mm512_reduce_add_epi64(acc)) +
         word_impl::hamming_words(a + w, b + w, n_words - w);
}

}  // namespace poetbin

#endif  // POETBIN_HAVE_AVX512VPOPCNT
