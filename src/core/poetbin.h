// PoET-BiN classifier: nc x P RINC modules emulating the teacher's
// intermediate layer, followed by the sparsely connected, q-bit quantized
// output layer (§2.2).
//
// Each output neuron is wired to exactly P intermediate bits (the block of
// RINC modules distilled for its class), so its real-valued activation is a
// function of P bits and is realised in hardware as q LUTs of P inputs.
// The output layer is retrained on the RINC outputs (not the teacher bits),
// which is what lets the network adapt to RINC prediction noise — the
// effect behind the paper's CIFAR-10 accuracy *gain* at stage A4.
#pragma once

#include <cstdint>
#include <vector>

#include "core/gather_program.h"
#include "core/rinc.h"
#include "nn/quantize.h"
#include "util/aligned_vector.h"
#include "util/bit_matrix.h"

namespace poetbin {

class BatchEngine;  // core/batch_eval.h

// Fraction of predictions matching their labels (0.0 for an empty set).
// Sizes must agree. The single scoring convention behind
// Runtime::accuracy and the benches and tests that score a prediction
// vector.
double prediction_accuracy(const std::vector<int>& predictions,
                           const std::vector<int>& labels);

struct OutputLayerConfig {
  int quant_bits = 8;          // q
  std::size_t epochs = 200;    // full-batch gradient steps
  double learning_rate = 0.05;
  double lr_decay = 0.99;
  std::uint64_t seed = 11;
};

struct PoetBinConfig {
  RincConfig rinc;
  std::size_t n_classes = 10;
  OutputLayerConfig output;
  // Worker threads for distilling the nc x P RINC modules (they are
  // independent problems, so parallel training is deterministic).
  // 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;
  bool verbose = false;
};

// One sparsely connected output neuron: float weights for training, plus the
// quantized 2^P-entry activation table that ships to hardware.
struct SparseOutputNeuron {
  std::vector<std::size_t> input_modules;  // indices into the RINC bank
  std::vector<float> weights;              // size P
  float bias = 0.0f;
  std::vector<std::uint32_t> codes;        // 2^P quantized activations

  float activation(std::size_t combo) const;
};

// One class's momentum update for an output-layer epoch:
// vel = momentum * vel - lr * grad, then weight += vel (and likewise for
// the bias). Out of line and shared with the scalar retrain oracle, so both
// run one instruction sequence: separately inlined copies could contract
// the multiply-adds differently and silently break their bit-identity.
void momentum_step(SparseOutputNeuron& neuron, float* weight_velocity,
                   float& bias_velocity, const float* weight_grad,
                   float bias_grad, float momentum, float flr);

class PoetBin {
 public:
  PoetBin() = default;

  // `intermediate_targets` holds the teacher's intermediate-layer bits
  // (n x nc*P) used to distil one RINC module per column; `labels` are the
  // true classes used to retrain the output layer on the RINC outputs.
  static PoetBin train(const BitMatrix& features,
                       const BitMatrix& intermediate_targets,
                       const std::vector<int>& labels,
                       const PoetBinConfig& config);

  // Reconstruction from stored artefacts (deserialization). Validates the
  // nc x P wiring and code-table sizes. `tables`, when given, is the table
  // image the modules' Luts view (a packed load's), which the compiled
  // program adopts instead of copying (see GatherProgram::compile).
  static PoetBin from_parts(PoetBinConfig config,
                            std::vector<RincModule> modules,
                            std::vector<SparseOutputNeuron> output_neurons,
                            QuantizerParams quantizer,
                            const TableImage* tables = nullptr);

  std::size_t n_classes() const { return output_.size(); }
  std::size_t n_modules() const { return modules_.size(); }
  std::size_t lut_inputs() const { return config_.rinc.lut_inputs; }
  int quant_bits() const { return config_.output.quant_bits; }

  const std::vector<RincModule>& modules() const { return modules_; }
  const std::vector<SparseOutputNeuron>& output_neurons() const { return output_; }
  const QuantizerParams& quantizer() const { return quantizer_; }
  // The compiled per-example program (its table image is what a packed
  // file stores).
  const GatherProgram& program() const { return program_; }

  // Input feature width the model serves: highest referenced feature
  // index + 1 (the model stores wiring, not a width — this is the single
  // derivation rule the netlist exporter and the network server share).
  // Computed once by the compile step.
  std::size_t n_features() const { return program_.n_features(); }

  // Output-layer code bit-planes, precomputed for the fused argmax: plane
  // `q` of neuron `c` is the compact 2^P-entry truth table of bit q of c's
  // codes (word-padded, tail bits zero), ready for the same
  // Shannon-reduction kernel the LUT layers use. Rebuilt from the codes by
  // from_parts/retrain_output_layer. code_plane_count() is bit_width of the
  // largest code (>= 1 whenever the output layer exists).
  std::size_t code_plane_count() const { return n_code_planes_; }
  const std::uint64_t* code_plane(std::size_t neuron,
                                  std::size_t plane) const {
    return code_planes_.data() +
           (neuron * n_code_planes_ + plane) * code_plane_words();
  }

  // One example's class: runs the gather program compiled from this
  // model (core/gather_program.h) — per RINC level one address gather and
  // one table read per LUT, then the output-layer argmax (ties to the
  // lower class). Checks example_bits.size() >= n_features() once; bits
  // past n_features() are ignored. Bit-identical to the per-bit scalar
  // walk in tests/reference.
  int predict(const BitVector& example_bits) const;
  // A dataset's classes: BatchEngine::predict_dataset on `engine`, the
  // fused word pass (bit-identical to predict on every row). The RINC
  // bank's output bits come from BatchEngine::rinc_outputs.
  std::vector<int> predict_dataset_batched(const BitMatrix& features,
                                           const BatchEngine& engine) const;

  // Fraction of intermediate bits where RINC output matches the teacher
  // target (diagnostic for distillation quality).
  static double intermediate_fidelity(const BitMatrix& rinc_bits,
                                      const BitMatrix& teacher_bits);

  // Total LUT count before 8->6 decomposition: RINC LUTs + q per output
  // neuron (the paper's q x nc output-layer cost).
  std::size_t lut_count() const;

  // (Re)fits the sparse output layer + shared quantizer on a bank of RINC
  // output bits (n x >= nc*P; neuron c reads columns [c*P, (c+1)*P)) against
  // the true labels, from the seeded init — the paper's A4 adaptation step,
  // exposed so a deployed model can re-adapt to new data without
  // re-distilling the RINC bank. Validates the label range and bank width.
  // The squared-hinge active set is computed 64 examples per word op (the
  // per-example activation/compare collapses into per-combo tables plus
  // two lut_reduce passes on the active SIMD backend) and saturated
  // examples are skipped for free; the weights and codes are bit-identical
  // to the per-example scalar loop, on every backend. `engine`, when
  // non-null, spreads classes across its pool (gradients are block-local
  // per class, so any thread count is bit-identical).
  void retrain_output_layer(const BitMatrix& rinc_bits,
                            const std::vector<int>& labels,
                            const BatchEngine* engine = nullptr);

 private:
  // Rebuilds what is derived from the modules and the output layer: the
  // code planes the fused argmax reads and the gather program predict
  // runs (which also fixes n_features()). Called by from_parts and
  // whenever the output layer changes; `tables` as in from_parts, else
  // the current program's image is the adoption candidate.
  void compile(const TableImage* tables = nullptr);
  std::size_t code_plane_words() const {
    return BitVector::words_needed(std::size_t{1} << lut_inputs());
  }

  PoetBinConfig config_;
  std::vector<RincModule> modules_;        // nc * P, module j targets column j
  std::vector<SparseOutputNeuron> output_; // nc neurons
  QuantizerParams quantizer_;              // shared scale -> comparable codes
  WordVec code_planes_;  // nc x n_planes compact 2^P-bit tables
  std::size_t n_code_planes_ = 0;
  GatherProgram program_;
};

}  // namespace poetbin
