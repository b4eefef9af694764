// AVX-512 VBMI + BITALG address gather: one vpermb (vpermi2b) picks the
// 64 source bytes a group of address bits needs, one vpshufbitqmb picks
// each bit out of its byte, and the 64-bit mask it writes is eight LUT
// addresses. Pure byte and bit selection, so bit-identical to the scalar
// loop by construction.
//
// This TU is the only one compiled with -mavx512vbmi -mavx512bitalg; the
// avx512 backend table (word_backend_avx512.cpp, which declares this entry
// point) selects it only when CPUID also reports both extensions at
// runtime, so an AVX-512 machine without them keeps the scalar loop and
// never executes this.
#include "util/word_backend.h"

#if defined(POETBIN_HAVE_AVX512VBMI)

#if defined(__GNUC__) && !defined(__clang__)
// GCC's _mm256_undefined_si256() (inside _mm512_castsi512_si256) is
// self-initialized (__Y = __Y), which trips -Wmaybe-uninitialized (GCC
// PR105593) — same suppression as word_backend_avx512.cpp.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include <array>
#include <cstdint>

namespace poetbin {

namespace {

inline __mmask64 first_bytes(std::size_t n) {
  return n >= 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1;
}

// Byte k < 32 picks the low byte of dword k of a two-register pair.
constexpr std::array<std::uint8_t, 64> kLowBytes = [] {
  std::array<std::uint8_t, 64> picks{};
  for (std::size_t k = 0; k < 32; ++k) {
    picks[k] = static_cast<std::uint8_t>(4 * k);
  }
  return picks;
}();

// 64 indices (each < 128, two per word) narrowed to the vpermi2b control
// bytes: two vpermt2b take the low bytes of 32 dwords each, one insert
// joins them.
inline __m512i control_bytes(const std::uint64_t* index) {
  const __m512i picks = _mm512_loadu_si512(kLowBytes.data());
  const __m512i lo = _mm512_permutex2var_epi8(
      _mm512_loadu_si512(index), picks, _mm512_loadu_si512(index + 8));
  const __m512i hi = _mm512_permutex2var_epi8(
      _mm512_loadu_si512(index + 16), picks, _mm512_loadu_si512(index + 24));
  return _mm512_inserti64x4(lo, _mm512_castsi512_si256(hi), 1);
}

}  // namespace

void avx512_vbmi_gather_bits(const std::uint8_t* src, std::size_t src_bytes,
                             const std::uint64_t* index,
                             const std::uint8_t* select, std::size_t n_groups,
                             std::uint64_t* out) {
  if (src_bytes <= 128) {
    // The whole source fits two registers: masked loads never touch bytes
    // past src_bytes, and one vpermi2b serves every group.
    const __m512i lo = _mm512_maskz_loadu_epi8(first_bytes(src_bytes), src);
    const __m512i hi =
        src_bytes > 64
            ? _mm512_maskz_loadu_epi8(first_bytes(src_bytes - 64), src + 64)
            : _mm512_setzero_si512();
    for (std::size_t g = 0; g < n_groups; ++g, index += 32, select += 64) {
      const __m512i bytes =
          _mm512_permutex2var_epi8(lo, control_bytes(index), hi);
      out[g] = _mm512_bitshuffle_epi64_mask(bytes, _mm512_loadu_si512(select));
    }
    return;
  }
  // Wider sources stage each group's 64 bytes, then select the bits.
  alignas(64) std::uint8_t staged[64];
  for (std::size_t g = 0; g < n_groups; ++g, index += 32, select += 64) {
    for (std::size_t k = 0; k < 64; ++k) {
      staged[k] = src[static_cast<std::uint32_t>(index[k / 2] >> (k % 2 * 32))];
    }
    out[g] = _mm512_bitshuffle_epi64_mask(_mm512_load_si512(staged),
                                          _mm512_loadu_si512(select));
  }
}

}  // namespace poetbin

#endif  // POETBIN_HAVE_AVX512VBMI
