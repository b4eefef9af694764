#include "nn/quantize.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace poetbin {

QuantizerParams fit_quantizer(const Matrix& values, int bits) {
  POETBIN_CHECK(bits >= 1 && bits <= kMaxQuantBits);
  POETBIN_CHECK(values.size() > 0);
  QuantizerParams params;
  params.bits = bits;
  params.min_value = values.vec()[0];
  params.max_value = values.vec()[0];
  for (const auto v : values.vec()) {
    params.min_value = std::min(params.min_value, v);
    params.max_value = std::max(params.max_value, v);
  }
  if (params.max_value == params.min_value) {
    params.max_value = params.min_value + 1.0f;  // avoid zero range
  }
  return params;
}

std::uint32_t quantize_value(float value, const QuantizerParams& params) {
  const float clamped =
      std::clamp(value, params.min_value, params.max_value);
  const float scaled = (clamped - params.min_value) / params.step();
  const auto code = static_cast<std::uint32_t>(std::lround(scaled));
  return std::min(code, params.levels() - 1);
}

float dequantize_value(std::uint32_t code, const QuantizerParams& params) {
  POETBIN_CHECK(code < params.levels());
  return params.min_value + static_cast<float>(code) * params.step();
}

float quantize_dequantize(float value, const QuantizerParams& params) {
  return dequantize_value(quantize_value(value, params), params);
}

Matrix quantize_matrix(const Matrix& values, const QuantizerParams& params) {
  Matrix out = values;
  for (auto& v : out.vec()) v = quantize_dequantize(v, params);
  return out;
}

}  // namespace poetbin
