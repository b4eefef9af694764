// Discrete Adaboost over an abstract weak learner.
//
// Used twice by the paper: within a subgroup (boosting P RINC-0 trees into
// a RINC-1) and across subgroups (boosting P RINC-(l-1) modules into a
// RINC-l) — the "hierarchical Adaboost" of Algorithm 2. The weak learner is
// injected as a callback so the same loop serves LevelDT, ClassicDt and
// recursive RINC modules.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "boost/mat.h"
#include "util/bitvector.h"

namespace poetbin {

struct AdaboostConfig {
  // Per-MAT round count; at most 64 (the combined prediction packs one bit
  // per round into a 64-bit combo mask).
  std::size_t n_rounds = 6;
  // epsilon is clamped to [clamp, 1 - clamp] before computing alpha, which
  // caps |alpha| and keeps perfect weak learners from collapsing weights.
  double epsilon_clamp = 1e-6;
};

struct AdaboostRoundStats {
  double alpha = 0.0;
  double weighted_error = 0.0;  // epsilon of this round's weak classifier
};

struct AdaboostResult {
  MatModule mat;                            // alphas of all rounds
  std::vector<AdaboostRoundStats> rounds;   // per-round diagnostics
  BitVector train_predictions;              // boosted prediction per example
  double train_error = 0.0;                 // unweighted, on the training set
};

// Trains one weak classifier under `weights` for the given round and returns
// its {0,1} predictions on all training examples. Implementations own the
// trained classifier (e.g. push it into a vector).
using WeakTrainFn =
    std::function<BitVector(std::span<const double> weights, std::size_t round)>;

// Runs discrete Adaboost: weights start uniform (or `initial_weights` if
// non-empty), each round reweights by exp(-alpha * y * h). The error and
// reweight loops are word-parallel: the round's disagreement mask is one
// preds ^ targets pass, epsilon is a masked weighted sum over the mask
// words, and the exp-reweight collapses to two precomputed factors chosen
// per bit — no per-example exp(). Bit-identical to the per-example scalar
// loops the tests hold it to.
AdaboostResult run_adaboost(const BitVector& targets, WeakTrainFn train_weak,
                            const AdaboostConfig& config,
                            std::span<const double> initial_weights = {});

}  // namespace poetbin
