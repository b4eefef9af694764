// Modified level-wise decision tree — Algorithm 1 of the paper (RINC-0).
//
// Unlike a classic DT (one feature per *node*), the level-wise DT assigns
// one feature per *level*: every node at depth j tests the same feature, so
// a depth-P tree partitions the input space into exactly 2^P cells addressed
// by the P selected feature bits — i.e. it IS a P-input LUT. Training
// greedily picks, per level, the unused feature that minimises the total
// weighted entropy across all nodes of that level; leaves take the weighted
// majority class (ties resolved to class 1, matching Algorithm 1's
// "S0 <= S1 -> 1" rule).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dt/lut.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"

namespace poetbin {

class BatchEngine;  // core/batch_eval.h; optional candidate-scan parallelism

struct LevelDtConfig {
  // P: number of inputs of the target LUT (= tree depth).
  std::size_t n_inputs = 6;
  // Optional candidate restriction; empty means "all features". Duplicate
  // entries are deduplicated (first occurrence wins the tie-break order) and
  // features already used by this tree are always excluded, per Algorithm 1.
  std::vector<std::size_t> candidate_features;
};

struct LevelDtResult {
  Lut lut;
  // Weighted training error of the LUT under the weights it was trained on.
  double weighted_error = 0.0;
  // Total weighted entropy after the final level (diagnostic).
  double final_entropy = 0.0;
};

// Trains Algorithm 1. `targets` holds the binary class per example;
// `weights` must sum to something positive (Adaboost passes a distribution).
// If `weights` is empty, uniform weights are used.
//
// The candidate scan is word-parallel: per-bucket class masses are gathered
// from the packed candidate-column words (64 examples per word op) instead
// of extracting one bit per example. Per-candidate scores agree with the
// scalar scan below to accumulated rounding (masses are derived
// subtractively and carried across levels), so feature selection matches
// it unless two candidates score within a few ulps of each other — exact
// duplicates still tie exactly and resolve identically. Once selection
// matches, LUT contents, reported entropy and weighted error are
// bit-identical (they come from exact in-order rebuilds). When `engine` is
// non-null the per-level scan is spread across its thread pool (identical
// results at any thread count: each candidate's score is computed
// independently and the argmin keeps the scalar tie-break order).
LevelDtResult train_level_dt(const BitMatrix& features, const BitVector& targets,
                             std::span<const double> weights,
                             const LevelDtConfig& config,
                             const BatchEngine* engine = nullptr);

// The scalar scan: one node-id/target bit extraction per example per
// candidate. train_level_dt falls back to it when the word-parallel scan's
// carried per-candidate mass buffers would exceed 256 MiB (extreme P x
// candidate-count combinations); it is also the reference the tests hold
// the word-parallel scan to.
LevelDtResult train_level_dt_scalar(const BitMatrix& features,
                                    const BitVector& targets,
                                    std::span<const double> weights,
                                    const LevelDtConfig& config);

}  // namespace poetbin
