// RINC convolution — the paper's §6 future-work item ("in future work, we
// will implement the convolutional layers with RINC modules").
//
// A binarized conv layer maps a C x H x W binary feature map to out_c
// binary output maps, where each output bit is a boolean function of a
// C x k x k patch. That function is exactly a wide binary neuron, so it is
// distilled into one RINC module per *output channel* (weight sharing: the
// same module is applied at every spatial position, mirroring how a conv
// kernel is shared). Training pools the patches of all examples and all
// positions into one distillation dataset per channel.
//
// Inference has one path: the bitsliced `eval_dataset_batched`, which
// never materializes patches. Each chunk of up to 16 words (1024 examples)
// is copied once into a thread-local zero-padded frame, one run of chunk
// words per padded pixel, with each row's pixels grouped by stride phase
// (px % stride). Patch bit (c, ky, kx) of one output row is then a single
// contiguous run across every output column ox, so each leaf and MAT LUT
// of a channel module Shannon-reduces out_w x chunk words in one kernel
// call on the active SIMD backend, straight from its compact truth table
// (the layer holds no other copy of its tables), and the MAT's result is
// already the chunk's conv output for that row.
// `predict_conv_dataset` feeds each chunk's conv output straight into the
// classifier's fused argmax, so a predict never builds the n x out-bits
// conv output matrix. One frame takes the same pass as a one-row matrix
// (`ConvModel::predict`); the scalar frame oracle is
// reference::conv_eval_dataset in tests/reference/.
#pragma once

#include <cstddef>
#include <vector>

#include "core/poetbin.h"
#include "core/rinc.h"
#include "util/bit_matrix.h"

namespace poetbin {

struct BinShape3 {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t flat() const { return channels * height * width; }
  bool operator==(const BinShape3&) const = default;
};

struct RincConvConfig {
  std::size_t out_channels = 8;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 1;  // out-of-frame bits read as 0
  RincConfig rinc;          // per-channel module shape
  // Cap on pooled (example x position) patch rows used for training each
  // channel's module; rows are subsampled deterministically beyond it.
  std::size_t max_train_patches = 200000;
};

class RincConvLayer {
 public:
  RincConvLayer() = default;

  // `inputs` holds n examples of in_shape.flat() bits each (channel-major);
  // `targets` holds the binarized teacher conv outputs, n examples of
  // out_channels * out_h * out_w bits (channel-major), where out_h/out_w
  // follow from kernel/stride/padding. The (in_shape, config) pair is
  // validated up front (see validate below) — malformed geometry aborts
  // with a named contract instead of failing deep inside patch gathering.
  static RincConvLayer train(const BitMatrix& inputs, BinShape3 in_shape,
                             const BitMatrix& targets,
                             const RincConvConfig& config);

  // Reconstruction from stored artefacts (deserialization, hand-built
  // layers in tests): validates the geometry, that `modules` holds exactly
  // config.out_channels entries, and that no module references a feature
  // at or beyond patch_bits().
  static RincConvLayer from_parts(BinShape3 in_shape, RincConvConfig config,
                                  std::vector<RincModule> modules);

  // Aborts (POETBIN_CHECK) unless the geometry is servable: nonzero
  // in_shape dims, out_channels, kernel and stride; padding < kernel (a
  // padding of kernel or more would admit all-padding patches); and a
  // kernel that fits the padded frame.
  static void validate(BinShape3 in_shape, const RincConvConfig& config);

  BinShape3 input_shape() const { return in_shape_; }
  BinShape3 output_shape() const { return out_shape_; }
  const RincConvConfig& config() const { return config_; }
  std::size_t patch_bits() const {
    return in_shape_.channels * config_.kernel * config_.kernel;
  }

  // Applies the layer to n examples; returns n x out_shape().flat() bits
  // (channel, then oy, then ox). The padded-frame row-run pass described
  // above, one job per word chunk across the engine's pool, bit-identical
  // at any thread count and on every word backend. Defined in
  // core/batch_eval.cpp.
  BitMatrix eval_dataset_batched(const BitMatrix& inputs,
                                 const BatchEngine& engine) const;

  const std::vector<RincModule>& channel_modules() const { return modules_; }
  // LUTs for one instantiation of every channel module. In hardware the
  // modules are replicated per position (fully parallel single-cycle conv)
  // or time-multiplexed; both costs derive from this count.
  std::size_t lut_count_per_position() const;

 private:
  // Patch rows (one per example x position) for the whole dataset.
  BitMatrix gather_patches(const BitMatrix& inputs) const;

  BinShape3 in_shape_;
  BinShape3 out_shape_;
  RincConvConfig config_;
  std::vector<RincModule> modules_;  // one per output channel
};

// A servable convolutional model: a RINC conv front end whose flattened
// output bits feed a standard PoetBin classifier. This is the unit the
// serializers, the packed format and the serving Runtime move around —
// `n_features()` is the *frame* width (C x H x W), what a client puts on
// the wire; the classifier's own feature indices address conv output bits.
struct ConvModel {
  RincConvLayer conv;
  PoetBin classifier;

  std::size_t n_features() const { return conv.input_shape().flat(); }
  std::size_t n_classes() const { return classifier.n_classes(); }

  // One frame's class: predict_conv_dataset on a one-row matrix, inline on
  // the calling thread (a BatchEngine with no pool).
  int predict(const BitVector& frame_bits) const;
  // A dataset's classes through the fused word pass, bit-identical to
  // predict on every row: see predict_conv_dataset.
  std::vector<int> predict_dataset_batched(const BitMatrix& frames,
                                           const BatchEngine& engine) const;
};

// Fused word-parallel conv predict, bit-identical to the scalar conv +
// classifier oracle (reference::predict_dataset) on every frame: per word
// chunk, the conv pass writes the chunk's conv output bits to a
// thread-local buffer and the classifier's fused argmax
// (BatchEngine::predict_dataset's chunk body) runs on it.
// Defined in core/batch_eval.cpp.
std::vector<int> predict_conv_dataset(const RincConvLayer& conv,
                                      const PoetBin& classifier,
                                      const BitMatrix& frames,
                                      const BatchEngine& engine);

}  // namespace poetbin
