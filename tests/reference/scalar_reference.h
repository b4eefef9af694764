// Scalar oracles: per-example reference implementations of the
// word-parallel trainers in src/, of the per-example predict and of the
// dataset passes. Each one runs the semantics of its production
// counterpart one example (or one (example, class) pair) at a time, with
// no word ops, no thread pool and no compiled program, so the bit-identity
// tests and the benches have something independent to hold the production
// paths to. The LevelDT scalar scan is not here: it stays in src/ as
// train_level_dt's over-cap fallback (train_level_dt_scalar).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "boost/adaboost.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "core/rinc_conv.h"
#include "dt/lut.h"
#include "hw/netlist.h"
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
// column-scan eval_dataset weak-learner pass below.
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

// --- dataset oracles: column scans over a feature-major BitMatrix ---------
//
// Each leaf assembles every row's address from its input columns, one bit
// per row per input, and each MAT the combo of its children's output bits;
// the word pass (RincModule::eval_dataset_batched, BatchEngine,
// predict_conv_dataset) must match them bit for bit.

// Every row's address into `lut`: bit j is the row's feature inputs()[j]
// (checked against features.cols()).
std::vector<std::size_t> lut_addresses(const Lut& lut,
                                       const BitMatrix& features);
// `lut`'s output bit for every row.
BitVector eval_dataset(const Lut& lut, const BitMatrix& features);
// `module`'s output bit for every row.
BitVector eval_dataset(const RincModule& module, const BitMatrix& features);
// The RINC bank's output bits (n x nc*P), module j in column j.
BitMatrix rinc_outputs(const PoetBin& model, const BitMatrix& features);
// rinc_outputs, then each row's output-layer argmax (ties to the lower
// class).
std::vector<int> predict_dataset(const PoetBin& model,
                                 const BitMatrix& features);
// The conv layer over n frames: one patch row per (frame, position) in
// c -> ky -> kx order with out-of-frame bits 0, each channel module
// evaluated over the patch rows, output bits channel, then oy, then ox.
BitMatrix conv_eval_dataset(const RincConvLayer& layer,
                            const BitMatrix& frames);
// conv_eval_dataset, then the classifier's predict_dataset.
std::vector<int> predict_dataset(const ConvModel& model,
                                 const BitMatrix& frames);

// --- netlist equivalence -------------------------------------------------

// True iff the two netlists produce identical outputs on every row of
// `vectors`, simulated one row at a time (a Monte-Carlo equivalence check;
// exhaustive for few inputs). Holds optimize_netlist to the netlist it
// was given.
bool verify_equivalent(const Netlist& a, const Netlist& b,
                       const BitMatrix& vectors);

// --- checksum ----------------------------------------------------------------

// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) one byte per table
// read: the oracle for the packed format's slicing-by-8 model_io::crc32.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t size);

}  // namespace poetbin::reference
