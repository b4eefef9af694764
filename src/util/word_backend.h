// Pluggable SIMD word backend.
//
// Every LUT kernel in the library is word-parallel: it walks packed uint64
// words (one word = 64 examples of one bit) and applies pure bitwise logic
// plus a few bit-steered float ops. WordOps holds exactly the kernels whose
// vector width pays: the Shannon LUT reduction, the per-example address
// gather and table lookup, the Hamming count, the bitsliced argmax and the
// Adaboost reweight. Plain word loops (Adaboost's XOR, LevelDT's AND) and
// the LevelDT entropy sum are ordinary code at their call sites. The scalar64
// backend processes one 64-bit word per step, NEON two, AVX2 four, AVX-512
// eight. All backends are bit-identical: the operations are exact (integer
// logic and elementwise IEEE multiplies), so widening the word never
// changes a result. The oracles are the column scans in tests/reference.
//
// Dispatch: the first call to word_ops() probes the CPU (CPUID on x86,
// the hwcap auxv on arm64) for the widest backend this build and this
// machine both support. POETBIN_FORCE_BACKEND
// (= scalar64 | avx2 | avx512 | neon) overrides the probe — aborting loudly
// if the forced backend is unavailable — and set_word_backend() does the
// same programmatically (used by tests and the per-backend bench loops).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace poetbin {

enum class WordBackend { kScalar64, kAvx2, kAvx512, kNeon };

// Widest table WordOps::lut_reduce accepts: Lut's constructor enforces it
// (the model file formats stop at 16 inputs).
inline constexpr std::size_t kMaxLutArity = 23;

// The kernel table one backend provides. All ranges are in 64-bit words; a
// backend is free to process them in wider blocks internally, finishing any
// ragged remainder at scalar width (lut_reduce instead runs it as one
// zero-padded block). No function masks dataset tails — bits beyond the
// logical size are the caller's contract, exactly as with the raw scalar
// loops these replace.
struct WordOps {
  WordBackend kind;  // word_backend_name(kind) names it

  // Shannon-reduced LUT evaluation, the batch-inference inner loop:
  //   out[w - word_begin] =
  //       table(columns[0][w - base], ..., columns[arity-1][w - base])
  // for w in [word_begin, word_end), where `table` is the compact truth
  // table: entry a is bit a % 64 of word a / 64, padded to whole words with
  // the bits past 2^arity zero (a BitVector's words). Arity 0 writes the
  // constant entry 0 as 0 or ~0. arity <= kMaxLutArity. Every backend runs
  // one kernel (util/word_backend_shannon.h) at its own width: depth-first
  // in registers, with the bottom level folded, so an arity-k LUT costs
  // 2^(k-1) - 1 muxes plus one NOT per block and a call has no setup cost.
  void (*lut_reduce)(const std::uint64_t* table, std::size_t arity,
                     const std::uint64_t* const* columns, std::size_t base,
                     std::size_t word_begin, std::size_t word_end,
                     std::uint64_t* out);

  // Per-example address gather, the inner loop of PoetBin::predict
  // (core/gather_program.h). For each of n_groups groups of 64 output bits:
  //   bit k of out[g] = bit (select[64g + k] & 7) of src[i(64g + k)]
  // so byte b of out[g] (little-endian) is eight address bits of one LUT.
  // The 32-bit source indices come two per word, low half first:
  // i(n) = (index[n / 2] >> (32 * (n % 2))) & 0xFFFFFFFF. Every index is
  // < src_bytes and src is read only inside [0, src_bytes).
  // select[64g + k] >> 3 must equal k % 8: the byte's slot inside its
  // 64-bit lane, which is the form vpshufbitqmb consumes. The
  // AVX-512 backend runs vpermb + vpshufbitqmb when the CPU has VBMI and
  // BITALG (sources over 128 bytes stage each group's bytes first); every
  // other backend runs the scalar loop.
  void (*gather_bits)(const std::uint8_t* src, std::size_t src_bytes,
                      const std::uint64_t* index, const std::uint8_t* select,
                      std::size_t n_groups, std::uint64_t* out);

  // Table reads after a gather, for a level of LUTs sharing one arity
  // (1..8): for t < n_luts,
  //   bit t of out = bit (address[t] & (2^arity - 1)) of LUT t's table,
  // where word j of LUT t's table is planes[j * stride + t] and stride is
  // n_luts rounded up to a multiple of 8. address and every plane are
  // readable up to stride; the planes' padding words must be zero, which
  // makes out's bits past n_luts zero. out holds ceil(n_luts / 64) words.
  // AVX-512 reads eight LUTs per step; the others run the scalar loop.
  void (*lut_lookup)(const std::uint8_t* address, const std::uint64_t* planes,
                     std::size_t arity, std::size_t n_luts,
                     std::uint64_t* out);

  // popcount(a ^ b) without materializing the xor (BitVector::hamming and
  // xnor_popcount). AVX-512 counts eight words per vpopcntq when the CPU
  // has VPOPCNTDQ; every other backend runs the scalar loop.
  std::size_t (*hamming_words)(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n_words);

  // Bitsliced argmax step (the fused output layer): candidate and best codes
  // are stored as n_planes bit-planes (plane p, word w holds bit p of 64
  // examples' codes). Computes gt = (cand > best) per example with a
  // bitwise MSB-first comparator, blends the winning candidate planes into
  // best, and records class_index in the n_class_planes class-index planes
  // wherever gt is set. Strictly-greater ties resolve to the incumbent
  // (lower class index), matching the scalar comparator-tree rule.
  void (*argmax_update)(const std::uint64_t* const* cand_planes,
                        std::uint64_t* const* best_planes, std::size_t n_planes,
                        std::uint64_t* const* class_planes,
                        std::size_t n_class_planes, std::uint32_t class_index,
                        std::size_t n_words);

  // weights[i] *= (bit i of `bits` ? factor1 : factor0) for i in [0, n_bits).
  // Elementwise IEEE multiplies — exact at any vector width (the Adaboost
  // reweight kernel).
  void (*scale_by_mask)(const std::uint64_t* bits, std::size_t n_bits,
                        double factor0, double factor1, double* weights);
};

// The active backend's kernel table (never null).
const WordOps& word_ops();

// Kernel table for a specific backend, or nullptr when that backend was not
// compiled in or this CPU lacks the instructions.
const WordOps* word_ops_for(WordBackend backend);

inline bool word_backend_available(WordBackend backend) {
  return word_ops_for(backend) != nullptr;
}

WordBackend active_word_backend();

// Switches the active backend; aborts with a clear message when it is
// unavailable. Not synchronized against kernels already in flight — switch
// between dataset passes (tests and benches do this single-threaded).
void set_word_backend(WordBackend backend);

// Backends usable on this build + CPU, widest last. Always contains
// kScalar64.
std::vector<WordBackend> available_word_backends();

const char* word_backend_name(WordBackend backend);

// "scalar64" / "avx2" / "avx512" / "neon" (case-insensitive) -> backend;
// nullopt for anything else. The parser behind POETBIN_FORCE_BACKEND.
std::optional<WordBackend> word_backend_from_name(std::string_view name);

}  // namespace poetbin
