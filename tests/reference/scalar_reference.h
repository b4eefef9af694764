// Scalar oracles: per-example reference implementations of the
// word-parallel trainers in src/ and of the per-example predict. Each one
// runs the semantics of its production counterpart one example (or one
// (example, class) pair) at a time, with no word ops, no thread pool and no
// compiled program, so the bit-identity tests and the benches have
// something independent to hold the production paths to. The LevelDT
// scalar scan is not here: it stays in src/ as train_level_dt's over-cap
// fallback (train_level_dt_scalar).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "boost/adaboost.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"

namespace poetbin::reference {

// run_adaboost with the per-example error and exp-reweight loops. Same
// contract and results, bit for bit.
AdaboostResult run_adaboost_scalar(const BitVector& targets,
                                   WeakTrainFn train_weak,
                                   const AdaboostConfig& config,
                                   std::span<const double> initial_weights = {});

// A RINC module trained by the scalar oracles, plus the training error
// RincModule::train would report for it (the module built from make_leaf /
// make_internal does not carry one).
struct RincFit {
  RincModule module;
  double train_error = 0.0;
};

// RincModule::train on train_level_dt_scalar, run_adaboost_scalar and the
// scalar eval_dataset weak-learner pass.
RincFit train_rinc_scalar(const BitMatrix& features, const BitVector& targets,
                          std::span<const double> weights,
                          const RincConfig& config);

// PoetBin::retrain_output_layer with the per-(example, class) squared-hinge
// loop: the same seeded init, the same production momentum_step, and the
// same shared quantizer fit. `config` must be the config `model` was built
// with; the result keeps `model`'s RINC bank and carries the new output
// layer.
PoetBin retrain_output_layer_scalar(const PoetBin& model,
                                    const PoetBinConfig& config,
                                    const BitMatrix& rinc_bits,
                                    const std::vector<int>& labels);

// One LUT's address for one example: bit j is example bit inputs()[j]
// (BitVector::get checks each index).
std::size_t lut_address(const Lut& lut, const BitVector& example_bits);

// One RINC module on one example: each leaf looks up its address, each
// MAT the combo of its children's bits.
bool eval_module(const RincModule& module, const BitVector& example_bits);

// PoetBin::predict as a per-bit walk: each output neuron reads its P
// modules, each module evaluates its tree leaf by leaf with one
// BitVector::get per input (which checks the index), then the argmax over
// the neurons' codes with ties to the lower class. The oracle the gather
// program is held to.
int predict_walk(const PoetBin& model, const BitVector& example_bits);

}  // namespace poetbin::reference
