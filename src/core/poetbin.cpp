#include "core/poetbin.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "core/batch_eval.h"
#include "util/aligned_vector.h"
#include "util/rng.h"
#include "util/word_backend.h"

namespace poetbin {

float SparseOutputNeuron::activation(std::size_t combo) const {
  float acc = bias;
  for (std::size_t j = 0; j < weights.size(); ++j) {
    if ((combo >> j) & 1) acc += weights[j];
  }
  return acc;
}

namespace {

// Every class label must name one of the nc output neurons. A negative or
// >= nc label used to flow through a std::size_t cast unvalidated, so the
// example silently trained against target -1 for *every* class (and a
// pathological label could never match); fail loudly instead, and before
// any distillation time is spent.
void check_labels(const std::vector<int>& labels, std::size_t n_classes) {
  for (const int label : labels) {
    POETBIN_CHECK_MSG(
        label >= 0 && static_cast<std::size_t>(label) < n_classes,
        "class label out of range [0, n_classes)");
  }
}

}  // namespace

PoetBin PoetBin::train(const BitMatrix& features,
                       const BitMatrix& intermediate_targets,
                       const std::vector<int>& labels,
                       const PoetBinConfig& config) {
  const std::size_t n = features.rows();
  POETBIN_CHECK(intermediate_targets.rows() == n);
  POETBIN_CHECK(labels.size() == n);
  check_labels(labels, config.n_classes);
  const std::size_t n_intermediate = intermediate_targets.cols();
  POETBIN_CHECK_MSG(n_intermediate == config.n_classes * config.rinc.lut_inputs,
                    "intermediate layer must have nc x P neurons");

  PoetBin model;
  model.config_ = config;
  model.modules_.assign(n_intermediate, RincModule{});

  // Distil one RINC module per intermediate neuron. The problems are
  // independent, so one pool job per module is deterministic at any thread
  // count. Module-level parallelism already saturates the pool, so each
  // module trains with the single-thread word-parallel scans (engine
  // nullptr inside RincModule::train); the same engine is then reused for
  // the bitsliced rinc-output pass below.
  const BatchEngine engine(config.threads);
  engine.parallel_for(n_intermediate, [&](std::size_t j) {
    model.modules_[j] = RincModule::train(
        features, intermediate_targets.column(j), /*weights=*/{}, config.rinc);
  });
  if (config.verbose) {
    for (std::size_t j = 0; j < n_intermediate; ++j) {
      std::printf("  RINC %zu/%zu train_err=%.4f\n", j + 1, n_intermediate,
                  model.modules_[j].train_error());
    }
  }

  // The output layer retrains on the RINC bank's outputs; produce them with
  // the bitsliced batch engine, and reuse the same engine to spread
  // retraining across classes.
  const BitMatrix rinc_bits = engine.rinc_outputs(model, features);
  model.retrain_output_layer(rinc_bits, labels, &engine);
  return model;
}

PoetBin PoetBin::from_parts(PoetBinConfig config,
                            std::vector<RincModule> modules,
                            std::vector<SparseOutputNeuron> output_neurons,
                            QuantizerParams quantizer,
                            const TableImage* tables) {
  POETBIN_CHECK(modules.size() ==
                config.n_classes * config.rinc.lut_inputs);
  POETBIN_CHECK(output_neurons.size() == config.n_classes);
  const std::size_t n_combos = std::size_t{1} << config.rinc.lut_inputs;
  for (const auto& neuron : output_neurons) {
    POETBIN_CHECK(neuron.input_modules.size() == config.rinc.lut_inputs);
    POETBIN_CHECK(neuron.weights.size() == config.rinc.lut_inputs);
    POETBIN_CHECK(neuron.codes.size() == n_combos);
    for (const auto m : neuron.input_modules) {
      POETBIN_CHECK(m < modules.size());
    }
    for (const auto code : neuron.codes) {
      POETBIN_CHECK(code < quantizer.levels());
    }
  }
  PoetBin model;
  model.config_ = std::move(config);
  model.modules_ = std::move(modules);
  model.output_ = std::move(output_neurons);
  model.quantizer_ = quantizer;
  model.compile(tables);
  return model;
}

void PoetBin::compile(const TableImage* tables) {
  const std::size_t n_combos = std::size_t{1} << config_.rinc.lut_inputs;
  std::uint32_t max_code = 1;
  for (const auto& neuron : output_) {
    for (const auto code : neuron.codes) max_code = std::max(max_code, code);
  }
  n_code_planes_ = static_cast<std::size_t>(std::bit_width(max_code));
  code_planes_.resize(output_.size() * n_code_planes_ * code_plane_words());
  std::uint64_t* plane_word = code_planes_.data();
  for (std::size_t c = 0; c < output_.size(); ++c) {
    const std::uint32_t* codes = output_[c].codes.data();
    for (std::size_t q = 0; q < n_code_planes_; ++q) {
      // Word w of plane q: bit q of codes [64w, 64w + 64), tail bits zero.
      for (std::size_t at = 0; at < n_combos; at += 64) {
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < std::min<std::size_t>(64, n_combos - at);
             ++b) {
          word |= std::uint64_t{(codes[at + b] >> q) & 1u} << b;
        }
        *plane_word++ = word;
      }
    }
  }
  const TableImage current = program_.tables();
  program_ = GatherProgram::compile(modules_, output_,
                                    tables != nullptr ? tables : &current);
}

// noinline: an inlined copy in train_output could contract differently from
// the out-of-line call the scalar oracle makes (see poetbin.h).
[[gnu::noinline]] void momentum_step(SparseOutputNeuron& neuron,
                                     float* weight_velocity,
                                     float& bias_velocity,
                                     const float* weight_grad, float bias_grad,
                                     float momentum, float flr) {
  for (std::size_t j = 0; j < neuron.weights.size(); ++j) {
    float& vel = weight_velocity[j];
    vel = momentum * vel - flr * weight_grad[j];
    neuron.weights[j] += vel;
  }
  bias_velocity = momentum * bias_velocity - flr * bias_grad;
  neuron.bias += bias_velocity;
}

namespace {

// Output-layer retraining: full-batch gradient descent on the multi-class
// squared hinge with momentum and exponential LR decay. Each logit depends
// only on its own P weights, so gradients stay block-local (the sparse
// wiring). The word-parallel shape is bit-identical to the per-example
// scalar loop (tests/reference holds it); three observations make that
// possible:
//
//  1. An example's logit, hinge and gradient for class c are functions of
//     its P-bit combo and its +-1 target alone, so the per-example float
//     math collapses into per-(combo, target) tables computed once per
//     class per epoch with the scalar path's exact expressions. Every
//     intermediate multiply is by +-1 or 2 — exact — so the rounding
//     points cannot shift between the two computation shapes.
//  2. "Is this example's hinge active" is therefore a boolean function of
//     the P input bits (one function per target sign), which
//     Shannon-reduces over the class's packed RINC columns with the same
//     ops.lut_reduce kernel the LUT layers use: the whole
//     activation/compare stage runs 64 examples per word op on the active
//     SIMD backend, and saturated examples cost nothing — late epochs
//     touch only the shrinking active set.
//  3. The gradient adds themselves are order-dependent float sums, so they
//     are NOT reassociated into popcount-weighted partial sums (the
//     backend bit-identity rule: only exact ops widen). The countr_zero
//     gather performs the table-gradient adds in ascending example order —
//     exactly the scalar accumulation sequence, minus the examples the
//     scalar loop also skips.
//
// Parallelism is across classes, not example chunks: gradients, velocities
// and weights are block-local per class (the sparse wiring), so per-class
// jobs share no float state and any thread count is bit-identical.
// Example-chunk partials would have to be reduced in float and could not
// match the scalar order.
void train_output(std::vector<SparseOutputNeuron>& output,
                  const BitMatrix& rinc_bits, const std::vector<int>& labels,
                  std::size_t n_classes, std::size_t p,
                  const OutputLayerConfig& ocfg, const BatchEngine* engine) {
  const std::size_t n = rinc_bits.rows();
  const std::size_t n_words = BitVector::words_needed(n);
  const std::uint64_t tail = BitVector::tail_word_mask(n);
  const std::size_t n_combos = std::size_t{1} << p;
  const std::size_t n_table_words = BitVector::words_needed(n_combos);

  // Fixed for the whole retrain: each class's label mask words and packed
  // per-example table key — combo bits, plus the target sign at bit P so
  // one lookup resolves the gradient.
  std::vector<std::vector<std::uint32_t>> class_keys(n_classes);
  std::vector<WordVec> label_words(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
    auto& keys = class_keys[c];
    keys.assign(n, 0u);
    label_words[c].assign(n_words, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<std::size_t>(labels[i]) == c) {
        keys[i] = static_cast<std::uint32_t>(n_combos);
        label_words[c][i >> 6] |= 1ULL << (i & 63);
      }
    }
    for (std::size_t j = 0; j < p; ++j) {
      const std::uint64_t* col = rinc_bits.column(c * p + j).words();
      const std::uint32_t bit = 1u << j;
      for (std::size_t w = 0; w < n_words; ++w) {
        std::uint64_t m = col[w];
        if (w + 1 == n_words) m &= tail;  // tolerate dirty column tails
        const std::size_t row0 = w * 64;
        while (m != 0) {
          keys[row0 + static_cast<std::size_t>(std::countr_zero(m))] |= bit;
          m &= m - 1;
        }
      }
    }
  }

  std::vector<float> weight_velocity(n_classes * p, 0.0f);
  std::vector<float> bias_velocity(n_classes, 0.0f);
  double lr = ocfg.learning_rate;
  const float momentum = 0.9f;
  const float inv_n = 1.0f / static_cast<float>(n);
  const std::uint32_t combo_mask = static_cast<std::uint32_t>(n_combos - 1);
  const WordOps& ops = word_ops();

  for (std::size_t epoch = 0; epoch < ocfg.epochs; ++epoch) {
    const float flr = static_cast<float>(lr);
    auto train_class = [&](std::size_t c) {
      SparseOutputNeuron& neuron = output[c];
      // Reused per worker thread across epochs (the engine's pool persists).
      static thread_local std::vector<float> grad_table, weight_grad;
      static thread_local WordVec table_pos, table_neg, active_pos,
          active_neg;
      static thread_local std::vector<const std::uint64_t*> columns;
      grad_table.resize(2 * n_combos);
      table_pos.assign(n_table_words, 0);
      table_neg.assign(n_table_words, 0);
      active_pos.resize(n_words);
      active_neg.resize(n_words);
      columns.resize(p);

      // Per-combo logits, hinges and gradients with the scalar expression
      // sequence; `!(hinge <= 0)` mirrors the scalar `continue` predicate
      // exactly (including its NaN behaviour).
      for (std::size_t a = 0; a < n_combos; ++a) {
        const float logit = neuron.activation(a);
        const float pos_target = 1.0f;
        const float pos_hinge = 1.0f - pos_target * logit;
        table_pos[a >> 6] |= std::uint64_t{!(pos_hinge <= 0.0f)} << (a & 63);
        grad_table[n_combos + a] = -2.0f * pos_hinge * pos_target * inv_n;
        const float neg_target = -1.0f;
        const float neg_hinge = 1.0f - neg_target * logit;
        table_neg[a >> 6] |= std::uint64_t{!(neg_hinge <= 0.0f)} << (a & 63);
        grad_table[a] = -2.0f * neg_hinge * neg_target * inv_n;
      }

      for (std::size_t j = 0; j < p; ++j) {
        columns[j] = rinc_bits.column_words(c * p + j).data();
      }
      ops.lut_reduce(table_pos.data(), p, columns.data(), /*base=*/0, 0,
                     n_words, active_pos.data());
      ops.lut_reduce(table_neg.data(), p, columns.data(), /*base=*/0, 0,
                     n_words, active_neg.data());

      weight_grad.assign(p, 0.0f);
      float bias_grad = 0.0f;
      const std::uint32_t* keys = class_keys[c].data();
      const std::uint64_t* lbl = label_words[c].data();
      for (std::size_t w = 0; w < n_words; ++w) {
        // Active word for this class: positive-target activity where the
        // label matches, negative-target activity elsewhere. Tail bits
        // carry garbage combos; mask them out of the gather.
        std::uint64_t act =
            (active_pos[w] & lbl[w]) | (active_neg[w] & ~lbl[w]);
        if (w + 1 == n_words) act &= tail;
        const std::size_t row0 = w * 64;
        while (act != 0) {
          const std::size_t i =
              row0 + static_cast<std::size_t>(std::countr_zero(act));
          const std::uint32_t key = keys[i];
          const float g = grad_table[key];
          bias_grad += g;
          std::uint32_t combo = key & combo_mask;
          while (combo != 0) {
            weight_grad[static_cast<std::size_t>(std::countr_zero(combo))] +=
                g;
            combo &= combo - 1;
          }
          act &= act - 1;
        }
      }
      momentum_step(neuron, weight_velocity.data() + c * p, bias_velocity[c],
                    weight_grad.data(), bias_grad, momentum, flr);
    };
    if (engine != nullptr) {
      engine->parallel_for(n_classes, train_class);
    } else {
      for (std::size_t c = 0; c < n_classes; ++c) train_class(c);
    }
    lr *= ocfg.lr_decay;
  }
}

}  // namespace

void PoetBin::retrain_output_layer(const BitMatrix& rinc_bits,
                                   const std::vector<int>& labels,
                                   const BatchEngine* engine) {
  const std::size_t n = rinc_bits.rows();
  const std::size_t n_classes = config_.n_classes;
  const std::size_t p = config_.rinc.lut_inputs;
  const OutputLayerConfig& ocfg = config_.output;
  // A short bank used to throw from deep inside BitMatrix::column mid-pack;
  // validate the wiring contract up front with an actionable message.
  POETBIN_CHECK_MSG(rinc_bits.cols() >= n_classes * p,
                    "RINC output bank narrower than nc x P — output neuron c "
                    "reads columns [c*P, (c+1)*P)");
  POETBIN_CHECK_MSG(labels.size() == n, "one class label per RINC output row");
  check_labels(labels, n_classes);

  // Block wiring: output neuron c reads modules [c*P, (c+1)*P), seeded
  // weights drawn in neuron-major order (the scalar oracle repeats it).
  output_.assign(n_classes, SparseOutputNeuron{});
  Rng rng(ocfg.seed);
  for (std::size_t c = 0; c < n_classes; ++c) {
    SparseOutputNeuron& neuron = output_[c];
    neuron.input_modules.resize(p);
    neuron.weights.resize(p);
    for (std::size_t j = 0; j < p; ++j) {
      neuron.input_modules[j] = c * p + j;
      neuron.weights[j] =
          static_cast<float>(rng.gaussian(0.0, std::sqrt(2.0 / p)));
    }
    neuron.bias = 0.0f;
  }

  train_output(output_, rinc_bits, labels, n_classes, p, ocfg, engine);

  // Shared quantizer scale over all neurons' reachable activations so raw
  // codes are directly comparable in the hardware argmax.
  const std::size_t n_combos = std::size_t{1} << p;
  Matrix activations(n_classes, n_combos);
  for (std::size_t c = 0; c < n_classes; ++c) {
    for (std::size_t combo = 0; combo < n_combos; ++combo) {
      activations(c, combo) = output_[c].activation(combo);
    }
  }
  quantizer_ = fit_quantizer(activations, config_.output.quant_bits);
  for (std::size_t c = 0; c < n_classes; ++c) {
    output_[c].codes.resize(n_combos);
    for (std::size_t combo = 0; combo < n_combos; ++combo) {
      output_[c].codes[combo] = quantize_value(activations(c, combo), quantizer_);
    }
  }
  // The fused argmax and predict read derived copies of the codes; keep
  // them in sync.
  compile();
}

int PoetBin::predict(const BitVector& example_bits) const {
  POETBIN_CHECK_MSG(example_bits.size() >= n_features(),
                    "example narrower than the model's feature width");
  return program_.predict(example_bits);
}

double prediction_accuracy(const std::vector<int>& predictions,
                           const std::vector<int>& labels) {
  POETBIN_CHECK(predictions.size() == labels.size());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (predictions[i] == labels[i]) ++correct;
  }
  return labels.empty() ? 0.0
                        : static_cast<double>(correct) / labels.size();
}

double PoetBin::intermediate_fidelity(const BitMatrix& rinc_bits,
                                      const BitMatrix& teacher_bits) {
  POETBIN_CHECK(rinc_bits.rows() == teacher_bits.rows());
  POETBIN_CHECK(rinc_bits.cols() == teacher_bits.cols());
  if (rinc_bits.rows() == 0 || rinc_bits.cols() == 0) return 1.0;
  std::size_t agree = 0;
  for (std::size_t c = 0; c < rinc_bits.cols(); ++c) {
    agree += rinc_bits.column(c).xnor_popcount(teacher_bits.column(c));
  }
  return static_cast<double>(agree) /
         static_cast<double>(rinc_bits.rows() * rinc_bits.cols());
}

std::size_t PoetBin::lut_count() const {
  std::size_t total = 0;
  for (const auto& module : modules_) total += module.lut_count();
  total += output_.size() * static_cast<std::size_t>(config_.output.quant_bits);
  return total;
}

}  // namespace poetbin
