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
// The truth tables live in one table image, laid out by TableLayout below;
// everything else — gather index and select arrays, per-LUT records, the
// output stage's code tables and the staged byte list — is derived by
// compile into a second word buffer, never read from a file. A loaded
// packed model's Luts already view its image in the file's buffer, so
// compile adopts that image (it checks every table's address) and the
// model holds each table once; a trained or hand-built model's program
// copies its tables into a new image. Both buffers are shared or owned by
// value, so a copied PoetBin carries a valid program.
// Feature indices are kept at full width: an example wider than 64 KiB
// first stages the distinct bytes the model reads (the staging list holds
// the full byte indices), and the gathers index the staged bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/rinc.h"
#include "util/aligned_vector.h"
#include "util/bitvector.h"

namespace poetbin {

struct SparseOutputNeuron;  // core/poetbin.h
struct WordOps;             // util/word_backend.h

// The words a program's truth tables live in: `size` words from `data`,
// kept alive by `owner` (a loaded file's buffer, or the words compile
// filled).
struct TableImage {
  std::shared_ptr<const void> owner;
  const std::uint64_t* data = nullptr;
  std::size_t size = 0;
};

// Where every truth table of a RINC bank sits in the table image, which
// packed v4 files store verbatim. Tables go level by level, leaves first,
// and in pre-order (module by module) within a level. A level whose LUTs
// share one arity of 1..8 is plane-major for WordOps::lut_lookup: word j
// of its t-th LUT at base + j x stride + t, the stride its LUT count
// rounded up to a multiple of 8, and the padding words zero. Any other
// level holds each table's words back to back. Feed every LUT to count()
// in that order, call finish(), then feed them to place() in the same
// order.
class TableLayout {
 public:
  struct Slot {
    std::size_t at = 0;      // word offset of word 0
    std::size_t stride = 1;  // words between consecutive table words
  };

  void count(std::size_t level, std::size_t arity);
  // Fixes every level's region; returns the image size in words.
  std::size_t finish();
  Slot place(std::size_t level, std::size_t arity);

  // The level's shared arity when it is plane-major, else 0.
  std::size_t uniform_arity(std::size_t level) const {
    return levels_[level].mixed ? 0 : levels_[level].arity;
  }
  std::size_t base(std::size_t level) const { return levels_[level].base; }
  // Whether every padding word of the plane-major levels is zero.
  bool padding_is_zero(const std::uint64_t* image) const;

 private:
  struct Level {
    std::size_t n = 0;
    std::size_t arity = 0;
    bool mixed = false;
    std::size_t words = 0;  // back-to-back size
    std::size_t base = 0;
    std::size_t cursor = 0;
  };
  static std::size_t stride(const Level& level) {
    return (level.n + 7) / 8 * 8;
  }
  std::vector<Level> levels_;
};

class GatherProgram {
 public:
  GatherProgram() = default;

  // Compiles the RINC bank and the output layer whose neuron c reads the
  // modules output[c].input_modules (validated by PoetBin::from_parts).
  // `adopt`, when given, is a candidate image: compile uses it in place
  // of a new one when it is exactly the layout's size and every table
  // already sits at its slot in it.
  static GatherProgram compile(const std::vector<RincModule>& modules,
                               const std::vector<SparseOutputNeuron>& output,
                               const TableImage* adopt = nullptr);

  // The truth tables, in TableLayout order.
  const TableImage& tables() const { return tables_; }

  // Highest feature index any leaf reads, plus one (0 when none does;
  // saturates instead of wrapping at the top of size_t).
  std::size_t n_features() const { return n_features_; }

  // The predicted class, ties to the lower class index (0 when there is no
  // output layer). Requires example.size() >= n_features(); bits past
  // n_features() are never read. Thread-safe: scratch is thread-local.
  int predict(const BitVector& example) const;

 private:
  // One level's gather and LUT reads. Offsets are in words of words_,
  // except table offsets, which index the table image.
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
    // j of LUT t at tables_at + j x round_up(n_luts, 8) + t of the image);
    // the output stage's code tables sit back to back in words_, 2^arity
    // uint32s each, from uint32 index tables_at.
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

  TableImage tables_;
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
