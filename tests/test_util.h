// Shared helpers for the test suite: small synthetic binary classification
// problems with known structure.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "boost/mat.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "data/dataset.h"
#include "dt/lut.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/word_backend.h"

namespace poetbin::testing {

// Restores the active SIMD word backend on scope exit; tests that call
// set_word_backend() must not leak the switch into later tests.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_word_backend()) {}
  ~BackendGuard() { set_word_backend(saved_); }

  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  WordBackend saved_;
};

// Number of set bits among the first `prefix_bits` bits of `bits`.
inline std::size_t popcount_prefix(const BitVector& bits,
                                   std::size_t prefix_bits) {
  POETBIN_CHECK(prefix_bits <= bits.size());
  std::size_t total = 0;
  const std::size_t full_words = prefix_bits / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    total += static_cast<std::size_t>(std::popcount(bits.words()[w]));
  }
  if (prefix_bits % 64 != 0) {
    total += static_cast<std::size_t>(std::popcount(
        bits.words()[full_words] & BitVector::tail_word_mask(prefix_bits)));
  }
  return total;
}

// Number of set bits in every word of `bits`, tail word included, so a
// bit left set past size() shows in the count.
inline std::size_t popcount(const BitVector& bits) {
  std::size_t total = 0;
  for (const std::uint64_t word : bits.word_span()) {
    total += static_cast<std::size_t>(std::popcount(word));
  }
  return total;
}

// Random binary feature matrix.
inline BitMatrix random_bits(std::size_t n_rows, std::size_t n_cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix bits(n_rows, n_cols);
  for (std::size_t r = 0; r < n_rows; ++r) {
    for (std::size_t c = 0; c < n_cols; ++c) {
      if (rng.next_bool()) bits.set(r, c, true);
    }
  }
  return bits;
}

// Targets computed by an arbitrary boolean function of the row, optionally
// flipped with probability `noise`.
inline BitVector targets_from(const BitMatrix& features,
                              const std::function<bool(const BitVector&)>& fn,
                              double noise = 0.0, std::uint64_t seed = 9) {
  Rng rng(seed);
  BitVector targets(features.rows());
  for (std::size_t i = 0; i < features.rows(); ++i) {
    bool label = fn(features.row(i));
    if (noise > 0.0 && rng.next_bool(noise)) label = !label;
    targets.set(i, label);
  }
  return targets;
}

inline double bit_accuracy(const BitVector& predictions, const BitVector& targets) {
  return static_cast<double>(predictions.xnor_popcount(targets)) /
         static_cast<double>(targets.size());
}

// 10-class linearly-separable-ish binary dataset: class = argmax over 10
// prototype agreement counts. Every classifier worth its salt should get
// well above chance on it.
inline BinaryDataset prototype_dataset(std::size_t n, std::size_t n_features,
                                       std::uint64_t seed,
                                       double flip_prob = 0.08) {
  Rng rng(seed);
  const std::size_t n_classes = 10;
  std::vector<BitVector> prototypes;
  for (std::size_t c = 0; c < n_classes; ++c) {
    BitVector proto(n_features);
    for (std::size_t f = 0; f < n_features; ++f) {
      if (rng.next_bool()) proto.set(f, true);
    }
    prototypes.push_back(std::move(proto));
  }

  BinaryDataset data;
  data.features = BitMatrix(n, n_features);
  data.labels.resize(n);
  data.n_classes = n_classes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t label = rng.next_index(n_classes);
    data.labels[i] = static_cast<int>(label);
    for (std::size_t f = 0; f < n_features; ++f) {
      bool bit = prototypes[label].get(f);
      if (rng.next_bool(flip_prob)) bit = !bit;
      if (bit) data.features.set(i, f, true);
    }
  }
  return data;
}

// Fraction of set bits per column; used to verify binary features are not
// degenerate (all-0 / all-1 columns carry no information for any DT).
inline std::vector<double> column_means(const BitMatrix& bits) {
  std::vector<double> means(bits.cols(), 0.0);
  if (bits.rows() == 0) return means;
  for (std::size_t c = 0; c < bits.cols(); ++c) {
    means[c] = static_cast<double>(popcount(bits.column(c))) /
               static_cast<double>(bits.rows());
  }
  return means;
}

// Class frequency histogram.
inline std::vector<std::size_t> class_histogram(const std::vector<int>& labels,
                                                std::size_t n_classes) {
  std::vector<std::size_t> histogram(n_classes, 0);
  for (const int label : labels) {
    POETBIN_CHECK(label >= 0 && static_cast<std::size_t>(label) < n_classes);
    ++histogram[static_cast<std::size_t>(label)];
  }
  return histogram;
}

// A LUT of `arity` random inputs below `n_features` and a random table.
inline Lut random_lut(std::size_t arity, std::size_t n_features, Rng& rng) {
  std::vector<std::size_t> inputs(arity);
  for (auto& input : inputs) input = rng.next_index(n_features);
  BitVector table(std::size_t{1} << arity);
  for (std::size_t a = 0; a < table.size(); ++a) table.set(a, rng.next_bool());
  return Lut(std::move(inputs), std::move(table));
}

// A full RINC-`level` of `fanin` children per node over `leaf_arity`-input
// random leaves, with random MAT weights.
inline RincModule random_rinc(std::size_t level, std::size_t fanin,
                              std::size_t leaf_arity, std::size_t n_features,
                              Rng& rng) {
  if (level == 0) {
    return RincModule::make_leaf(random_lut(leaf_arity, n_features, rng));
  }
  std::vector<RincModule> children;
  for (std::size_t c = 0; c < fanin; ++c) {
    children.push_back(
        random_rinc(level - 1, fanin, leaf_arity, n_features, rng));
  }
  std::vector<double> alphas(fanin);
  for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
  return RincModule::make_internal(std::move(children),
                                   MatModule(std::move(alphas)));
}

// n_classes x P modules from `make_module`, block-wired to random q = 8
// output codes.
inline PoetBin random_classifier(
    std::size_t p, std::size_t n_classes, Rng& rng,
    const std::function<RincModule(Rng&)>& make_module) {
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.n_classes = n_classes;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < n_classes * p; ++m) {
    modules.push_back(make_module(rng));
  }
  config.rinc.levels = modules.front().level();
  config.rinc.total_dts = modules.front().leaf_dt_count();
  const QuantizerParams quantizer;
  std::vector<SparseOutputNeuron> neurons(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
    neurons[c].weights.assign(p, 0.0f);
    for (std::size_t j = 0; j < p; ++j) {
      neurons[c].input_modules.push_back(c * p + j);
    }
    neurons[c].codes.resize(std::size_t{1} << p);
    for (auto& code : neurons[c].codes) {
      code = static_cast<std::uint32_t>(rng.next_index(quantizer.levels()));
    }
  }
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

}  // namespace poetbin::testing
