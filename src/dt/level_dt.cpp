#include "dt/level_dt.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "core/batch_eval.h"
#include "dt/entropy.h"
#include "util/check.h"

namespace poetbin {

namespace {

// Extracts bit i from a packed column without bounds re-checks; callers
// guarantee i < n.
inline std::size_t column_bit(const std::uint64_t* words, std::size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1ULL;
}

// Validates the inputs both scans share and normalises them: empty
// `weights` become uniform (backed by `uniform`), and `candidates` receives
// the deduplicated candidate list in tie-break order. Returns the depth.
std::size_t prepare_scan(const BitMatrix& features, const BitVector& targets,
                         const LevelDtConfig& config,
                         std::span<const double>& weights,
                         std::vector<double>& uniform,
                         std::vector<std::size_t>& candidates) {
  const std::size_t n = features.rows();
  const std::size_t n_features = features.cols();
  POETBIN_CHECK(targets.size() == n);
  POETBIN_CHECK(config.n_inputs >= 1);
  POETBIN_CHECK_MSG(config.n_inputs <= 16, "LUT arity beyond hardware range");
  POETBIN_CHECK_MSG(n > 0, "cannot train on an empty dataset");

  if (weights.empty()) {
    uniform.assign(n, 1.0 / static_cast<double>(n));
    weights = uniform;
  }
  POETBIN_CHECK(weights.size() == n);

  if (config.candidate_features.empty()) {
    candidates.resize(n_features);
    std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  } else {
    // Deduplicate, keeping first-occurrence order (the tie-break order).
    // Duplicates would otherwise pass the size check below yet run the
    // level loop out of usable features mid-scan.
    std::vector<bool> seen(n_features, false);
    candidates.reserve(config.candidate_features.size());
    for (const auto c : config.candidate_features) {
      POETBIN_CHECK(c < n_features);
      if (seen[c]) continue;
      seen[c] = true;
      candidates.push_back(c);
    }
  }
  const std::size_t depth = std::min(config.n_inputs, candidates.size());
  POETBIN_CHECK_MSG(depth == config.n_inputs,
                    "not enough candidate features for the requested LUT arity");
  return depth;
}

// The scalar scan behind train_level_dt_scalar: one node_id/target bit
// extraction per example per candidate — the semantics the word-parallel
// scan must reproduce bit for bit (tests compare the two).
LevelDtResult train_scalar(const BitMatrix& features, const BitVector& targets,
                           std::span<const double> weights,
                           const std::vector<std::size_t>& candidates,
                           std::size_t depth) {
  const std::size_t n = features.rows();
  const std::size_t n_features = features.cols();

  // node_id[i]: LUT address prefix of example i (bits 0..level-1 filled).
  std::vector<std::uint32_t> node_id(n, 0);
  std::vector<bool> used(n_features, false);
  std::vector<std::size_t> selected;
  selected.reserve(depth);

  // counts[bucket*2 + class]: weighted class mass per candidate child node.
  std::vector<double> counts;
  double best_entropy_final = 0.0;

  for (std::size_t level = 0; level < depth; ++level) {
    const std::size_t n_buckets = std::size_t{2} << level;  // 2^(level+1)
    double min_entropy = std::numeric_limits<double>::infinity();
    std::size_t best_feature = n_features;  // sentinel

    for (const auto feat : candidates) {
      if (used[feat]) continue;
      counts.assign(n_buckets * 2, 0.0);
      const std::uint64_t* col = features.column(feat).words();
      const std::uint64_t* tgt = targets.words();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t bucket =
            node_id[i] | (column_bit(col, i) << level);
        counts[bucket * 2 + column_bit(tgt, i)] += weights[i];
      }
      double level_entropy = 0.0;
      for (std::size_t b = 0; b < n_buckets; ++b) {
        level_entropy += weighted_node_entropy(counts[b * 2], counts[b * 2 + 1]);
      }
      // Strict '<' keeps the smallest feature index on ties -> deterministic.
      if (level_entropy < min_entropy) {
        min_entropy = level_entropy;
        best_feature = feat;
      }
    }

    POETBIN_CHECK(best_feature < n_features);
    used[best_feature] = true;
    selected.push_back(best_feature);
    best_entropy_final = min_entropy;

    const std::uint64_t* col = features.column(best_feature).words();
    for (std::size_t i = 0; i < n; ++i) {
      node_id[i] |= static_cast<std::uint32_t>(column_bit(col, i) << level);
    }
  }

  // Leaf labelling: weighted majority per cell; Algorithm 1 assigns class 1
  // when S0 <= S1 (so empty cells default to 1).
  const std::size_t n_cells = std::size_t{1} << depth;
  std::vector<double> cell_mass(n_cells * 2, 0.0);
  const std::uint64_t* tgt = targets.words();
  for (std::size_t i = 0; i < n; ++i) {
    cell_mass[node_id[i] * 2 + column_bit(tgt, i)] += weights[i];
  }

  BitVector table(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    if (cell_mass[cell * 2] <= cell_mass[cell * 2 + 1]) table.set(cell, true);
  }

  LevelDtResult result;
  result.lut = Lut(std::move(selected), std::move(table));
  result.final_entropy = best_entropy_final;

  double error = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool predicted = result.lut.lookup(node_id[i]);
    if (predicted != targets.get(i)) error += weights[i];
  }
  const double total_weight =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  result.weighted_error = total_weight > 0.0 ? error / total_weight : 0.0;
  return result;
}
// Word-parallel scan. Four ideas:
//
//  1. cell[i] = node_id[i]*2 + target_bit(i) is maintained across levels, so
//     a candidate's (bucket, class) cell needs no per-example bit extraction
//     at scan time; scoring a candidate is one gather pass over the set bits
//     of packed column words (countr_zero iteration skips the zero bits for
//     free, 64 examples per word load). The gather runs two interleaved
//     word streams into two accumulator banks, so neither the bit-clearing
//     dependency chain nor a hot accumulator's FP-add latency serialises it.
//  2. Per level, the class masses of the current nodes ("base") are known
//     before any candidate is scanned, and a candidate only moves examples
//     whose candidate bit is 1 into the upper half of its child nodes. So
//     gathering that half determines the lower half by subtraction — half
//     the weight-accumulation work of the scalar scan.
//  3. Cross-level recurrence: each surviving candidate carries its per-cell
//     masses from the previous level. Refining by the last winner's bit
//     only needs a gather over `candidate AND winner` (about a quarter of
//     the examples); the winner-bit-0 halves follow by subtraction from the
//     carried masses. Levels past the first therefore cost ~n/4 gathered
//     adds per candidate instead of the scalar scan's n bucket updates.
//
// Shallow levels (few cells) gather into two accumulator banks folded
// afterwards — with few distinct cells the two streams would otherwise
// collide on hot accumulators; deep levels gather both streams straight
// into the target buffer, where collisions are rare and the bank fill and
// fold would cost more than they save.
//
// After the winner is chosen its bit is folded into cell[] and base is
// rebuilt with one exact in-order pass, which makes the reported entropy,
// the leaf masses and the weighted error bit-identical to the scalar path.

// Accumulates weights[i] of every set bit i of (a AND b) — b may be null,
// meaning just a — into banks[cells[i]] and banks[stride + cells[i]],
// alternating between the two bank halves across two interleaved word
// streams. stride 0 collapses the banks into one target buffer; otherwise
// callers fold bank 1 into bank 0 afterwards. The last word is masked to
// n_bits so stray tail bits (raw-word writers that skipped
// mask_tail_word()) cannot index past the cell/weight arrays.
void gather_masked_weights(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n_bits, const std::uint32_t* cells,
                           const double* wts, double* banks,
                           std::size_t stride) {
  const std::size_t n_words = BitVector::words_needed(n_bits);
  const std::uint64_t tail = BitVector::tail_word_mask(n_bits);
  // The only word-level op in the scan, cand AND winner, is applied as each
  // word is loaded; the weighted gather that drains the word must stay
  // scalar (FP adds in ascending bit order is the bit-identity contract).
  auto load = [&](std::size_t w) {
    std::uint64_t m = b != nullptr ? a[w] & b[w] : a[w];
    if (w + 1 == n_words) m &= tail;
    return m;
  };
  auto drain = [&](std::uint64_t m, std::size_t row0, double* bank) {
    while (m != 0) {
      const std::size_t i =
          row0 + static_cast<std::size_t>(std::countr_zero(m));
      bank[cells[i]] += wts[i];
      m &= m - 1;
    }
  };
  const std::size_t half = n_words / 2;
  for (std::size_t w = 0; w < half; ++w) {
    const std::size_t wa = w;
    const std::size_t wb = half + w;
    std::uint64_t ma = load(wa);
    std::uint64_t mb = load(wb);
    const std::size_t ra = wa * 64;
    const std::size_t rb = wb * 64;
    while (ma != 0 && mb != 0) {
      const std::size_t ia =
          ra + static_cast<std::size_t>(std::countr_zero(ma));
      const std::size_t ib =
          rb + static_cast<std::size_t>(std::countr_zero(mb));
      banks[cells[ia]] += wts[ia];
      banks[stride + cells[ib]] += wts[ib];
      ma &= ma - 1;
      mb &= mb - 1;
    }
    drain(ma, ra, banks);
    drain(mb, rb, banks + stride);
  }
  for (std::size_t w = 2 * half; w < n_words; ++w) {
    drain(load(w), w * 64, banks);
  }
}

LevelDtResult train_bitsliced(const BitMatrix& features,
                              const BitVector& targets,
                              std::span<const double> weights,
                              const std::vector<std::size_t>& candidates,
                              std::size_t depth, const BatchEngine* engine) {
  const std::size_t n = features.rows();
  const std::size_t n_features = features.cols();
  const std::size_t n_words = BitVector::words_needed(n);

  std::vector<std::uint32_t> cell(n);
  {
    const std::uint64_t* tgt = targets.words();
    for (std::size_t i = 0; i < n; ++i) {
      cell[i] = static_cast<std::uint32_t>(column_bit(tgt, i));
    }
  }

  // base[node*2 + class]: weighted mass per current node and class,
  // accumulated in example order (the scalar accumulation order).
  std::vector<double> base(2, 0.0);
  for (std::size_t i = 0; i < n; ++i) base[cell[i]] += weights[i];

  // Surviving candidates in candidate order (the scalar scan and tie-break
  // order), each carrying its per-cell masses from the previous level in a
  // buffer grown level by level (resize zero-fills exactly the upper-half
  // cells each new level gathers into).
  std::vector<std::size_t> scan = candidates;
  std::vector<std::vector<double>> masses(scan.size());

  std::vector<std::size_t> selected;
  selected.reserve(depth);
  double best_entropy_final = 0.0;
  std::size_t prev_winner = n_features;

  // Below this cell count, gathered adds collide on hot accumulators often
  // enough that split banks (and their fill + fold) pay for themselves.
  constexpr std::size_t kBankedCellLimit = 64;

  for (std::size_t level = 0; level < depth; ++level) {
    const std::size_t half_cells = base.size();  // 2^(level+1)
    std::vector<double> entropies(scan.size());
    const std::uint64_t* winner_col =
        level == 0 ? nullptr : features.column(prev_winner).words();
    const bool banked = half_cells < kBankedCellLimit;

    auto score_candidate = [&](std::size_t k) {
      const std::uint64_t* col = features.column(scan[k]).words();
      std::vector<double>& buf = masses[k];
      const std::size_t old_cells = half_cells / 2;
      if (banked) {
        // Reused per worker thread: one allocation per thread per training
        // run instead of one per candidate per level.
        static thread_local std::vector<double> banks;
        banks.assign(2 * half_cells, 0.0);
        gather_masked_weights(col, winner_col, n, cell.data(),
                              weights.data(), banks.data(), half_cells);
        buf.resize(half_cells);
        // Gathered cells land in the upper half of [0, half_cells) when a
        // winner mask was applied (their winner bit is set); at level 0 the
        // whole range is live.
        for (std::size_t c = level == 0 ? 0 : old_cells; c < half_cells; ++c) {
          buf[c] = banks[c] + banks[half_cells + c];
        }
      } else {
        // resize zero-fills [old_cells, half_cells), the exact range the
        // gather accumulates into.
        buf.resize(half_cells);
        gather_masked_weights(col, winner_col, n, cell.data(),
                              weights.data(), buf.data(), /*stride=*/0);
      }
      if (level != 0) {
        // The winner-bit-0 halves follow in place by subtracting from the
        // carried masses, which occupy the lower half under the same
        // indices.
        for (std::size_t idx = 0; idx < old_cells; ++idx) {
          buf[idx] -= buf[idx + old_cells];
        }
      }
      // buf[c] is the candidate-bit-1 mass of cell c; the bit-0 mass is
      // base[c] - buf[c]. Node order matches the scalar bucket order: all
      // candidate-bit-0 nodes, then all candidate-bit-1 nodes. Both halves
      // accumulate through weighted_entropy_sum, chained via its `init`
      // accumulator so the node order (and therefore the score) is exactly
      // the old per-node loop's. The subtractions can land a few ulps below
      // zero when the halves round differently; clamp into the pair buffer
      // before the sum sees them.
      static thread_local std::vector<double> pairs;
      pairs.resize(half_cells);
      for (std::size_t b = 0; b < half_cells; ++b) {
        pairs[b] = std::max(0.0, base[b] - buf[b]);
      }
      const double level_entropy =
          weighted_entropy_sum(pairs.data(), half_cells / 2, 0.0);
      for (std::size_t b = 0; b < half_cells; ++b) {
        pairs[b] = std::max(0.0, buf[b]);
      }
      entropies[k] =
          weighted_entropy_sum(pairs.data(), half_cells / 2, level_entropy);
    };

    if (engine != nullptr) {
      engine->parallel_for(scan.size(), score_candidate);
    } else {
      for (std::size_t k = 0; k < scan.size(); ++k) score_candidate(k);
    }

    double min_entropy = std::numeric_limits<double>::infinity();
    std::size_t best_feature = n_features;  // sentinel
    std::size_t best_index = scan.size();
    for (std::size_t k = 0; k < scan.size(); ++k) {
      if (entropies[k] < min_entropy) {
        min_entropy = entropies[k];
        best_feature = scan[k];
        best_index = k;
      }
    }
    POETBIN_CHECK(best_feature < n_features);
    selected.push_back(best_feature);
    scan.erase(scan.begin() + static_cast<std::ptrdiff_t>(best_index));
    masses.erase(masses.begin() + static_cast<std::ptrdiff_t>(best_index));
    prev_winner = best_feature;

    // Fold the winner's bit into the cells...
    const std::uint64_t* col = features.column(best_feature).words();
    const std::uint32_t bump = 2u << level;  // 1 << level in node_id terms
    for (std::size_t w = 0; w < n_words; ++w) {
      std::uint64_t mask = col[w];
      if (w + 1 == n_words) mask &= BitVector::tail_word_mask(n);
      const std::size_t row0 = w * 64;
      while (mask != 0) {
        cell[row0 + static_cast<std::size_t>(std::countr_zero(mask))] += bump;
        mask &= mask - 1;
      }
    }
    // ...and rebuild base exactly. This equals the scalar path's winning
    // `counts` array bit for bit, so the diagnostic entropy matches too.
    base.assign(half_cells * 2, 0.0);
    for (std::size_t i = 0; i < n; ++i) base[cell[i]] += weights[i];
    best_entropy_final =
        weighted_entropy_sum(base.data(), base.size() / 2, 0.0);
  }

  // After the last level, base holds the per-(leaf cell, class) masses —
  // the scalar path's cell_mass. Same S0 <= S1 labelling rule.
  const std::size_t n_cells = std::size_t{1} << depth;
  BitVector table(n_cells);
  for (std::size_t c = 0; c < n_cells; ++c) {
    if (base[c * 2] <= base[c * 2 + 1]) table.set(c, true);
  }

  LevelDtResult result;
  result.lut = Lut(std::move(selected), std::move(table));
  result.final_entropy = best_entropy_final;

  double error = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool predicted = result.lut.lookup(cell[i] >> 1);
    if (predicted != ((cell[i] & 1u) != 0)) error += weights[i];
  }
  const double total_weight =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  result.weighted_error = total_weight > 0.0 ? error / total_weight : 0.0;
  return result;
}

}  // namespace

LevelDtResult train_level_dt(const BitMatrix& features, const BitVector& targets,
                             std::span<const double> weights,
                             const LevelDtConfig& config,
                             const BatchEngine* engine) {
  std::vector<double> uniform;
  std::vector<std::size_t> candidates;
  const std::size_t depth =
      prepare_scan(features, targets, config, weights, uniform, candidates);

  // The recurrence carries one 2^P-double mass buffer per candidate at the
  // final level; cap the total and fall back to the scalar scan (identical
  // results) rather than risk exhausting memory on extreme P x
  // candidate-count combinations.
  constexpr std::size_t kMaxCarriedBytes = std::size_t{1} << 28;  // 256 MiB
  const std::size_t carried_bytes =
      (candidates.size() << depth) * sizeof(double);
  if (carried_bytes <= kMaxCarriedBytes) {
    return train_bitsliced(features, targets, weights, candidates, depth,
                           engine);
  }
  return train_scalar(features, targets, weights, candidates, depth);
}

LevelDtResult train_level_dt_scalar(const BitMatrix& features,
                                    const BitVector& targets,
                                    std::span<const double> weights,
                                    const LevelDtConfig& config) {
  std::vector<double> uniform;
  std::vector<std::size_t> candidates;
  const std::size_t depth =
      prepare_scan(features, targets, config, weights, uniform, candidates);
  return train_scalar(features, targets, weights, candidates, depth);
}

}  // namespace poetbin
