#include <cmath>

#include "nn/matrix.h"
#include "nn/quantize.h"
#include "reference/scalar_reference.h"
#include "util/check.h"
#include "util/rng.h"

namespace poetbin::reference {

namespace {

// Full-batch gradient descent on the multi-class squared hinge, one
// (example, class) pair at a time over pre-packed uint32 combos, with
// momentum and exponential LR decay. Each logit depends only on its own P
// weights, so gradients stay block-local (the sparse wiring).
void train_output_scalar(std::vector<SparseOutputNeuron>& output,
                         const BitMatrix& rinc_bits,
                         const std::vector<int>& labels, std::size_t n_classes,
                         std::size_t p, const OutputLayerConfig& ocfg) {
  const std::size_t n = rinc_bits.rows();

  // Pre-pack each example's P-bit combo per class (bits don't change during
  // output-layer training).
  std::vector<std::uint32_t> combos(n * n_classes, 0);
  for (std::size_t c = 0; c < n_classes; ++c) {
    for (std::size_t j = 0; j < p; ++j) {
      const BitVector& column = rinc_bits.column(c * p + j);
      for (std::size_t i = 0; i < n; ++i) {
        if (column.get(i)) combos[i * n_classes + c] |= 1u << j;
      }
    }
  }

  std::vector<float> weight_velocity(n_classes * p, 0.0f);
  std::vector<float> bias_velocity(n_classes, 0.0f);
  double lr = ocfg.learning_rate;
  const float momentum = 0.9f;

  for (std::size_t epoch = 0; epoch < ocfg.epochs; ++epoch) {
    std::vector<float> weight_grad(n_classes * p, 0.0f);
    std::vector<float> bias_grad(n_classes, 0.0f);
    const float inv_n = 1.0f / static_cast<float>(n);

    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < n_classes; ++c) {
        const std::uint32_t combo = combos[i * n_classes + c];
        const float logit = output[c].activation(combo);
        const float target = (static_cast<std::size_t>(labels[i]) == c) ? 1.0f
                                                                        : -1.0f;
        const float hinge = 1.0f - target * logit;
        if (hinge <= 0.0f) continue;
        const float grad_logit = -2.0f * hinge * target * inv_n;
        bias_grad[c] += grad_logit;
        for (std::size_t j = 0; j < p; ++j) {
          if ((combo >> j) & 1) weight_grad[c * p + j] += grad_logit;
        }
      }
    }

    const float flr = static_cast<float>(lr);
    for (std::size_t c = 0; c < n_classes; ++c) {
      momentum_step(output[c], weight_velocity.data() + c * p,
                    bias_velocity[c], weight_grad.data() + c * p, bias_grad[c],
                    momentum, flr);
    }
    lr *= ocfg.lr_decay;
  }
}

}  // namespace

PoetBin retrain_output_layer_scalar(const PoetBin& model,
                                    const PoetBinConfig& config,
                                    const BitMatrix& rinc_bits,
                                    const std::vector<int>& labels) {
  const std::size_t n_classes = config.n_classes;
  const std::size_t p = config.rinc.lut_inputs;
  const OutputLayerConfig& ocfg = config.output;
  POETBIN_CHECK(rinc_bits.cols() >= n_classes * p);
  POETBIN_CHECK(labels.size() == rinc_bits.rows());

  // Seeded init: block wiring, weights drawn in neuron-major order.
  std::vector<SparseOutputNeuron> output(n_classes);
  Rng rng(ocfg.seed);
  for (std::size_t c = 0; c < n_classes; ++c) {
    output[c].input_modules.resize(p);
    output[c].weights.resize(p);
    for (std::size_t j = 0; j < p; ++j) {
      output[c].input_modules[j] = c * p + j;
      output[c].weights[j] =
          static_cast<float>(rng.gaussian(0.0, std::sqrt(2.0 / p)));
    }
  }

  train_output_scalar(output, rinc_bits, labels, n_classes, p, ocfg);

  // One quantizer scale shared by every neuron's reachable activations.
  const std::size_t n_combos = std::size_t{1} << p;
  Matrix activations(n_classes, n_combos);
  for (std::size_t c = 0; c < n_classes; ++c) {
    for (std::size_t combo = 0; combo < n_combos; ++combo) {
      activations(c, combo) = output[c].activation(combo);
    }
  }
  const QuantizerParams quantizer =
      fit_quantizer(activations, ocfg.quant_bits);
  for (std::size_t c = 0; c < n_classes; ++c) {
    output[c].codes.resize(n_combos);
    for (std::size_t combo = 0; combo < n_combos; ++combo) {
      output[c].codes[combo] = quantize_value(activations(c, combo), quantizer);
    }
  }
  return PoetBin::from_parts(config, model.modules(), std::move(output),
                             quantizer);
}

}  // namespace poetbin::reference
