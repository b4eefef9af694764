#include "core/rinc_conv.h"

#include <algorithm>
#include <cstdint>

#include "core/batch_eval.h"
#include "util/check.h"
#include "util/rng.h"

namespace poetbin {

namespace {

// Requires validate() to have passed.
BinShape3 conv_output_shape(BinShape3 in_shape, const RincConvConfig& config) {
  return {config.out_channels,
          (in_shape.height + 2 * config.padding - config.kernel) /
                  config.stride +
              1,
          (in_shape.width + 2 * config.padding - config.kernel) /
                  config.stride +
              1};
}

}  // namespace

void RincConvLayer::validate(BinShape3 in_shape,
                             const RincConvConfig& config) {
  POETBIN_CHECK_MSG(in_shape.channels > 0 && in_shape.height > 0 &&
                        in_shape.width > 0,
                    "conv input shape must have nonzero dims");
  POETBIN_CHECK_MSG(config.out_channels > 0,
                    "conv layer needs at least one output channel");
  POETBIN_CHECK_MSG(config.kernel > 0, "conv kernel must be nonzero");
  POETBIN_CHECK_MSG(config.stride > 0, "conv stride must be nonzero");
  POETBIN_CHECK_MSG(config.padding < config.kernel,
                    "conv padding must be smaller than the kernel (padding >= "
                    "kernel admits all-padding patches)");
  POETBIN_CHECK_MSG(in_shape.height + 2 * config.padding >= config.kernel,
                    "conv kernel taller than the padded frame");
  POETBIN_CHECK_MSG(in_shape.width + 2 * config.padding >= config.kernel,
                    "conv kernel wider than the padded frame");
}

RincConvLayer RincConvLayer::from_parts(BinShape3 in_shape,
                                        RincConvConfig config,
                                        std::vector<RincModule> modules) {
  validate(in_shape, config);
  POETBIN_CHECK_MSG(modules.size() == config.out_channels,
                    "conv layer needs one module per output channel");
  RincConvLayer layer;
  layer.in_shape_ = in_shape;
  layer.config_ = std::move(config);
  layer.out_shape_ = conv_output_shape(in_shape, layer.config_);
  layer.modules_ = std::move(modules);
  for (const auto& module : layer.modules_) {
    for (std::size_t feature : module.distinct_features()) {
      POETBIN_CHECK_MSG(feature < layer.patch_bits(),
                        "conv channel module references a feature beyond the "
                        "patch width");
    }
  }
  return layer;
}

BitMatrix RincConvLayer::gather_patches(const BitMatrix& inputs) const {
  const std::size_t n = inputs.rows();
  const std::size_t out_h = out_shape_.height;
  const std::size_t out_w = out_shape_.width;
  const std::size_t in_h = in_shape_.height;
  const std::size_t in_w = in_shape_.width;
  const std::size_t plane = in_h * in_w;
  const std::size_t kernel = config_.kernel;

  BitMatrix patches(n * out_h * out_w, patch_bits());
  for (std::size_t example = 0; example < n; ++example) {
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        const std::size_t row = (example * out_h + oy) * out_w + ox;
        std::size_t bit = 0;
        for (std::size_t c = 0; c < in_shape_.channels; ++c) {
          for (std::size_t ky = 0; ky < kernel; ++ky) {
            const long iy = static_cast<long>(oy * config_.stride + ky) -
                            static_cast<long>(config_.padding);
            for (std::size_t kx = 0; kx < kernel; ++kx, ++bit) {
              const long ix = static_cast<long>(ox * config_.stride + kx) -
                              static_cast<long>(config_.padding);
              if (iy < 0 || ix < 0 || iy >= static_cast<long>(in_h) ||
                  ix >= static_cast<long>(in_w)) {
                continue;  // zero padding
              }
              if (inputs.get(example,
                             c * plane + static_cast<std::size_t>(iy) * in_w +
                                 static_cast<std::size_t>(ix))) {
                patches.set(row, bit, true);
              }
            }
          }
        }
      }
    }
  }
  return patches;
}

RincConvLayer RincConvLayer::train(const BitMatrix& inputs, BinShape3 in_shape,
                                   const BitMatrix& targets,
                                   const RincConvConfig& config) {
  validate(in_shape, config);
  RincConvLayer layer;
  layer.in_shape_ = in_shape;
  layer.config_ = config;
  layer.out_shape_ = conv_output_shape(in_shape, config);

  const std::size_t n = inputs.rows();
  POETBIN_CHECK(inputs.cols() == in_shape.flat());
  POETBIN_CHECK(targets.rows() == n);
  POETBIN_CHECK_MSG(targets.cols() == layer.out_shape_.flat(),
                    "target maps must match the conv output shape");

  BitMatrix patches = layer.gather_patches(inputs);
  const std::size_t positions =
      layer.out_shape_.height * layer.out_shape_.width;

  // Deterministic subsample of patch rows if the pooled dataset is huge.
  // Hash-based selection: a fixed stride would alias with the spatial
  // position grid and bias the sample towards one image column.
  std::vector<std::size_t> rows;
  const std::size_t total = patches.rows();
  if (total > config.max_train_patches) {
    for (std::size_t r = 0; r < total; ++r) {
      std::uint64_t state = r ^ 0xc0ffee;
      if (splitmix64(state) % total < config.max_train_patches) {
        rows.push_back(r);
      }
    }
    POETBIN_CHECK(!rows.empty());
    patches = patches.select_rows(rows);
  }

  for (std::size_t channel = 0; channel < config.out_channels; ++channel) {
    // Targets for this channel, pooled over examples and positions in the
    // same order as the patch rows.
    BitVector channel_targets(total);
    for (std::size_t example = 0; example < n; ++example) {
      for (std::size_t p = 0; p < positions; ++p) {
        if (targets.get(example, channel * positions + p)) {
          channel_targets.set(example * positions + p, true);
        }
      }
    }
    if (!rows.empty()) {
      BitVector subsampled(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        subsampled.set(i, channel_targets.get(rows[i]));
      }
      channel_targets = std::move(subsampled);
    }
    layer.modules_.push_back(
        RincModule::train(patches, channel_targets, /*weights=*/{}, config.rinc));
  }
  return layer;
}

std::size_t RincConvLayer::lut_count_per_position() const {
  std::size_t total = 0;
  for (const auto& module : modules_) total += module.lut_count();
  return total;
}

int ConvModel::predict(const BitVector& frame_bits) const {
  const BitVector* frame = &frame_bits;
  return predict_conv_dataset(conv, classifier,
                              BitMatrix::from_rows({&frame, 1}),
                              BatchEngine(1))[0];
}

}  // namespace poetbin
