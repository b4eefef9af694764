#include "reference/scalar_reference.h"
#include "util/check.h"

namespace poetbin::reference {

std::vector<std::size_t> lut_addresses(const Lut& lut,
                                       const BitMatrix& features) {
  const std::size_t n = features.rows();
  std::vector<std::size_t> addrs(n, 0);
  for (std::size_t j = 0; j < lut.arity(); ++j) {
    POETBIN_CHECK(lut.inputs()[j] < features.cols());
    const std::uint64_t* words = features.column(lut.inputs()[j]).words();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t bit = (words[i >> 6] >> (i & 63)) & 1ULL;
      addrs[i] |= bit << j;
    }
  }
  return addrs;
}

BitVector eval_dataset(const Lut& lut, const BitMatrix& features) {
  const std::vector<std::size_t> addrs = lut_addresses(lut, features);
  BitVector out(features.rows());
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (lut.lookup(addrs[i])) out.set(i, true);
  }
  return out;
}

BitVector eval_dataset(const RincModule& module, const BitMatrix& features) {
  if (module.is_leaf()) return eval_dataset(module.leaf_lut(), features);
  std::vector<BitVector> child_bits;
  child_bits.reserve(module.children().size());
  for (const auto& child : module.children()) {
    child_bits.push_back(eval_dataset(child, features));
  }
  BitVector out(features.rows());
  for (std::size_t i = 0; i < features.rows(); ++i) {
    std::size_t combo = 0;
    for (std::size_t c = 0; c < child_bits.size(); ++c) {
      if (child_bits[c].get(i)) combo |= std::size_t{1} << c;
    }
    if (module.mat_lut().lookup(combo)) out.set(i, true);
  }
  return out;
}

BitMatrix rinc_outputs(const PoetBin& model, const BitMatrix& features) {
  BitMatrix out(features.rows(), model.n_modules());
  for (std::size_t j = 0; j < model.n_modules(); ++j) {
    out.column(j) = eval_dataset(model.modules()[j], features);
  }
  return out;
}

std::vector<int> predict_dataset(const PoetBin& model,
                                 const BitMatrix& features) {
  const BitMatrix bits = rinc_outputs(model, features);
  const auto& neurons = model.output_neurons();
  std::vector<int> predictions(bits.rows(), 0);
  for (std::size_t i = 0; i < bits.rows(); ++i) {
    std::size_t best_class = 0;
    std::uint32_t best_code = 0;
    for (std::size_t c = 0; c < neurons.size(); ++c) {
      std::size_t combo = 0;
      for (std::size_t j = 0; j < neurons[c].input_modules.size(); ++j) {
        if (bits.get(i, neurons[c].input_modules[j])) {
          combo |= std::size_t{1} << j;
        }
      }
      const std::uint32_t code = neurons[c].codes[combo];
      if (c == 0 || code > best_code) {
        best_code = code;
        best_class = c;
      }
    }
    predictions[i] = static_cast<int>(best_class);
  }
  return predictions;
}

BitMatrix conv_eval_dataset(const RincConvLayer& layer,
                            const BitMatrix& frames) {
  POETBIN_CHECK(frames.cols() == layer.input_shape().flat());
  const BinShape3 in = layer.input_shape();
  const BinShape3 out = layer.output_shape();
  const RincConvConfig& config = layer.config();
  const std::size_t n = frames.rows();
  const std::size_t positions = out.height * out.width;

  // One patch row per (example, position), bits in c -> ky -> kx order,
  // out-of-frame bits 0.
  BitMatrix patches(n * positions, layer.patch_bits());
  for (std::size_t example = 0; example < n; ++example) {
    for (std::size_t oy = 0; oy < out.height; ++oy) {
      for (std::size_t ox = 0; ox < out.width; ++ox) {
        const std::size_t row = (example * out.height + oy) * out.width + ox;
        std::size_t bit = 0;
        for (std::size_t c = 0; c < in.channels; ++c) {
          for (std::size_t ky = 0; ky < config.kernel; ++ky) {
            const long iy = static_cast<long>(oy * config.stride + ky) -
                            static_cast<long>(config.padding);
            for (std::size_t kx = 0; kx < config.kernel; ++kx, ++bit) {
              const long ix = static_cast<long>(ox * config.stride + kx) -
                              static_cast<long>(config.padding);
              if (iy < 0 || ix < 0 || iy >= static_cast<long>(in.height) ||
                  ix >= static_cast<long>(in.width)) {
                continue;
              }
              if (frames.get(example,
                             (c * in.height + static_cast<std::size_t>(iy)) *
                                     in.width +
                                 static_cast<std::size_t>(ix))) {
                patches.set(row, bit, true);
              }
            }
          }
        }
      }
    }
  }

  BitMatrix result(n, out.flat());
  const auto& modules = layer.channel_modules();
  for (std::size_t channel = 0; channel < modules.size(); ++channel) {
    const BitVector bits = eval_dataset(modules[channel], patches);
    for (std::size_t example = 0; example < n; ++example) {
      for (std::size_t p = 0; p < positions; ++p) {
        if (bits.get(example * positions + p)) {
          result.set(example, channel * positions + p, true);
        }
      }
    }
  }
  return result;
}

std::vector<int> predict_dataset(const ConvModel& model,
                                 const BitMatrix& frames) {
  return predict_dataset(model.classifier,
                         conv_eval_dataset(model.conv, frames));
}

}  // namespace poetbin::reference
