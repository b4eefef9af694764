// Per-example evaluation of a PoetBin, compiled once into a flat program.
//
// A LUT access is cheap; finding its address is what costs. The compile
// step lays every LUT of the model out as a run of address bytes: for each
// address bit, the index of the source byte holding it and a bit selector.
// Evaluating one example is then, per level of the RINC hierarchy, one
// WordOps::gather_bits call (vpermb + vpshufbitqmb on AVX-512 VBMI/BITALG,
// eight LUT addresses per 64 bits) followed by one table read per LUT:
//
//   level 0    leaf LUTs        gather from the example's bytes
//   level 1..  MAT LUTs         gather from the result bits of the levels
//                               below (RINC-2 has two MAT levels)
//   output     code tables      gather from the module result bits, then
//                               the argmax over the looked-up codes
//
// Result bits of level s sit at bit base_s + t of one result buffer, each
// base a multiple of 64, so later levels index them the way leaves index
// the example. A LUT of arity a takes ceil(a / 8) address bytes; its
// address is the little-endian read of those bytes masked to a bits.
// A level whose LUTs all share one arity of 1..8 (every level of a trained
// P <= 8 model) reads address byte t for LUT t and its tables through
// WordOps::lut_lookup, eight LUTs per AVX-512 step; other levels read a
// per-LUT record.
//
// The program is one contiguous word buffer plus plain integer offsets:
// every table, MAT and code table is copied in by value and nothing points
// into the model's Luts, so a copied PoetBin carries a valid program.
// Feature indices are kept at full width: an example wider than 64 KiB
// first stages the distinct bytes the model reads (the staging list holds
// the full byte indices), and the gathers index the staged bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rinc.h"
#include "util/aligned_vector.h"
#include "util/bitvector.h"

namespace poetbin {

struct SparseOutputNeuron;  // core/poetbin.h
struct WordOps;             // util/word_backend.h

class GatherProgram {
 public:
  GatherProgram() = default;

  // Compiles the RINC bank and the output layer whose neuron c reads the
  // modules output[c].input_modules (validated by PoetBin::from_parts).
  static GatherProgram compile(const std::vector<RincModule>& modules,
                               const std::vector<SparseOutputNeuron>& output);

  // Highest feature index any leaf reads, plus one (0 when none does;
  // saturates instead of wrapping at the top of size_t).
  std::size_t n_features() const { return n_features_; }

  // The predicted class, ties to the lower class index (0 when there is no
  // output layer). Requires example.size() >= n_features(); bits past
  // n_features() are never read. Thread-safe: scratch is thread-local.
  int predict(const BitVector& example) const;

 private:
  // One level's gather and LUT reads. Offsets are in words of words_.
  struct Stage {
    bool reads_example = false;  // else the result buffer
    std::size_t src_bytes = 0;   // bytes the gather may read
    std::size_t n_groups = 0;    // 64-bit address groups
    std::size_t index_at = 0;    // n_groups x 64 source byte indices, two
                                 // 32-bit halves per word (gather_bits)
    std::size_t select_at = 0;   // n_groups x 64 uint8 bit selectors
    std::size_t n_luts = 0;
    // Nonzero: every LUT has this arity (1..8) and takes one address byte.
    // The truth tables are then plane-major for WordOps::lut_lookup (word
    // j of LUT t at tables_at + j x round_up(n_luts, 8) + t); the output
    // stage's code tables sit back to back, 2^arity uint32s each, from
    // uint32 index tables_at.
    std::size_t uniform_arity = 0;
    std::size_t tables_at = 0;
    // Otherwise two words per LUT: (first address byte << 6) | arity, then
    // the word offset of its truth table (the byte offset of its code
    // table for the output stage).
    std::size_t records_at = 0;
    std::size_t result_word = 0;  // first result word written
  };

  void read_luts(const WordOps& ops, const Stage& stage,
                 const std::uint8_t* address, std::uint64_t* out) const;
  int argmax_codes(const std::uint8_t* address) const;

  // Runs the stage's gather into `address`; returns it as bytes.
  const std::uint8_t* gather(const WordOps& ops, const Stage& stage,
                             const std::uint8_t* src,
                             std::uint64_t* address) const;

  WordVec words_;
  std::vector<Stage> levels_;  // leaves first
  Stage output_;
  std::size_t n_staged_ = 0;   // 0: level 0 reads the example directly
  std::size_t staged_at_ = 0;  // n_staged_ full-width example byte indices
  std::size_t n_result_words_ = 0;
  std::size_t max_groups_ = 0;
  std::size_t n_features_ = 0;
};

}  // namespace poetbin
