// Uniform q-bit quantization utilities.
//
// The paper quantizes the retrained sparse output layer's activations to q
// bits (q = 8 chosen after a 4/8/16 ablation, §3) so each output neuron is
// implementable as q LUTs. We quantize symmetric around zero over the
// observed activation range.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace poetbin {

// Widest quantizer fit_quantizer accepts, and so the widest a model file may
// declare: a loaded model must survive retrain_output_layer.
inline constexpr int kMaxQuantBits = 16;

struct QuantizerParams {
  int bits = 8;
  float min_value = 0.0f;
  float max_value = 1.0f;

  std::uint32_t levels() const { return 1u << bits; }
  float step() const {
    return (max_value - min_value) / static_cast<float>(levels() - 1);
  }
};

// Fits the quantizer range to the data (min/max over all entries).
QuantizerParams fit_quantizer(const Matrix& values, int bits);

// Returns the integer code in [0, 2^bits).
std::uint32_t quantize_value(float value, const QuantizerParams& params);
// Code -> reconstructed float.
float dequantize_value(std::uint32_t code, const QuantizerParams& params);
// Round-trips a float through the quantizer.
float quantize_dequantize(float value, const QuantizerParams& params);

// Applies quantize_dequantize elementwise.
Matrix quantize_matrix(const Matrix& values, const QuantizerParams& params);

}  // namespace poetbin
