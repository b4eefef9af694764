#include "models.h"

#include <utility>
#include <vector>

#include "boost/mat.h"
#include "dt/lut.h"
#include "util/bitvector.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

using poetbin::RincModule;

namespace {

poetbin::Lut random_lut(std::size_t arity, std::size_t n_features,
                        poetbin::Rng& rng) {
  std::vector<std::size_t> inputs(arity);
  for (auto& input : inputs) input = rng.next_index(n_features);
  poetbin::BitVector table(std::size_t{1} << arity);
  for (std::size_t a = 0; a < table.size(); ++a) table.set(a, rng.next_bool());
  return poetbin::Lut(std::move(inputs), std::move(table));
}

// A RINC-1: `leaves` random leaf LUTs of `arity` inputs under one MAT.
RincModule random_module(std::size_t leaves, std::size_t arity,
                         std::size_t n_features, poetbin::Rng& rng) {
  std::vector<RincModule> children;
  for (std::size_t l = 0; l < leaves; ++l) {
    children.push_back(
        RincModule::make_leaf(random_lut(arity, n_features, rng)));
  }
  std::vector<double> alphas(leaves);
  for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
  return RincModule::make_internal(std::move(children),
                                   poetbin::MatModule(std::move(alphas)));
}

// 10 classes x P RINC-1 modules of `leaves` P-input leaves, random q = 8
// output codes.
poetbin::PoetBin random_classifier(std::size_t p, std::size_t leaves,
                                   std::size_t n_features,
                                   poetbin::Rng& rng) {
  poetbin::PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.rinc.levels = 1;
  config.rinc.total_dts = leaves;
  config.n_classes = 10;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < config.n_classes * p; ++m) {
    modules.push_back(random_module(leaves, p, n_features, rng));
  }
  const poetbin::QuantizerParams quantizer;
  std::vector<poetbin::SparseOutputNeuron> neurons(config.n_classes);
  for (std::size_t c = 0; c < config.n_classes; ++c) {
    neurons[c].weights.assign(p, 0.0f);
    for (std::size_t j = 0; j < p; ++j) {
      neurons[c].input_modules.push_back(c * p + j);
    }
    neurons[c].codes.resize(std::size_t{1} << p);
    for (auto& code : neurons[c].codes) {
      code = static_cast<std::uint32_t>(rng.next_index(quantizer.levels()));
    }
  }
  return poetbin::PoetBin::from_parts(config, std::move(modules),
                                      std::move(neurons), quantizer);
}

double module_muxes(const RincModule& module) {
  if (module.is_leaf()) {
    return static_cast<double>((std::size_t{1} << module.fanin()) - 1);
  }
  double total = static_cast<double>((std::size_t{1} << module.fanin()) - 1);
  for (const auto& child : module.children()) total += module_muxes(child);
  return total;
}

}  // namespace

poetbin::PoetBin make_dense_model(std::uint64_t seed) {
  poetbin::Rng rng(seed ^ 0xd3a5e0001ULL);
  poetbin::PoetBin model = random_classifier(8, 8, kDenseFeatures, rng);
  // The server derives its wire width from the highest referenced feature;
  // 80 x 8 x 8 random draws over 512 features reach the top one with
  // overwhelming probability, and this makes it certain.
  POETBIN_CHECK_MSG(model.n_features() == kDenseFeatures,
                    "seeded dense model does not span all 512 input bits");
  return model;
}

poetbin::ConvModel make_conv_model(std::uint64_t seed) {
  poetbin::Rng rng(seed ^ 0xc0471000ULL);
  poetbin::RincConvConfig config;
  config.out_channels = 8;
  config.kernel = 3;
  config.stride = 1;
  config.padding = 1;
  config.rinc = {.lut_inputs = 6, .levels = 1, .total_dts = 6};
  const std::size_t patch_bits =
      kConvInput.channels * config.kernel * config.kernel;
  std::vector<RincModule> channels;
  for (std::size_t c = 0; c < config.out_channels; ++c) {
    channels.push_back(random_module(6, 6, patch_bits, rng));
  }
  poetbin::ConvModel model;
  model.conv = poetbin::RincConvLayer::from_parts(kConvInput, config,
                                                  std::move(channels));
  model.classifier =
      random_classifier(6, 6, model.conv.output_shape().flat(), rng);
  return model;
}

double dense_word_ops_per_example(const poetbin::PoetBin& model) {
  double muxes = 0.0;
  for (const auto& module : model.modules()) muxes += module_muxes(module);
  muxes += static_cast<double>(model.n_classes() * model.code_plane_count() *
                               ((std::size_t{1} << model.lut_inputs()) - 1));
  return muxes / 64.0;
}

double conv_word_ops_per_frame(const poetbin::RincConvLayer& layer) {
  double per_position = 0.0;
  for (const auto& module : layer.channel_modules()) {
    per_position += module_muxes(module);
  }
  const poetbin::BinShape3 out = layer.output_shape();
  return per_position * static_cast<double>(out.height * out.width) / 64.0;
}

}  // namespace perfbench
