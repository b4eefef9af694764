#include "core/rinc.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace poetbin {

namespace {

// P^l with overflow guard (arities and levels are tiny).
std::size_t ipow(std::size_t base, std::size_t exponent) {
  std::size_t result = 1;
  for (std::size_t i = 0; i < exponent; ++i) {
    POETBIN_CHECK(result <= (static_cast<std::size_t>(-1) / base));
    result *= base;
  }
  return result;
}

}  // namespace

std::size_t full_rinc_lut_count(std::size_t lut_inputs, std::size_t levels) {
  // sum_{l=0..L} P^l
  std::size_t total = 0;
  for (std::size_t l = 0; l <= levels; ++l) total += ipow(lut_inputs, l);
  return total;
}

RincModule RincModule::make_leaf(Lut lut) {
  RincModule module;
  module.leaf_ = std::move(lut);
  return module;
}

RincModule RincModule::make_internal(std::vector<RincModule> children,
                                     MatModule mat) {
  Lut mat_lut(std::vector<std::size_t>(mat.arity(), 0), mat.to_table());
  return make_internal(std::move(children), std::move(mat),
                       std::move(mat_lut));
}

RincModule RincModule::make_internal(std::vector<RincModule> children,
                                     MatModule mat, Lut mat_lut) {
  POETBIN_CHECK(!children.empty());
  POETBIN_CHECK(mat.arity() == children.size());
  POETBIN_CHECK_MSG(mat_lut.arity() == mat.arity(),
                    "prebuilt MAT LUT arity must match the MAT fanin");
  const std::size_t child_level = children.front().level();
  for (const auto& child : children) {
    POETBIN_CHECK_MSG(child.level() == child_level,
                      "RINC children must share a level");
  }
  RincModule module;
  module.children_ = std::move(children);
  module.mat_ = std::move(mat);
  module.mat_lut_ = std::move(mat_lut);
  return module;
}

RincModule RincModule::train(const BitMatrix& features, const BitVector& targets,
                             std::span<const double> weights,
                             const RincConfig& config,
                             const BatchEngine* engine) {
  POETBIN_CHECK(config.lut_inputs >= 2);
  const std::size_t max_dts = ipow(config.lut_inputs, config.levels);
  std::size_t budget = config.total_dts == 0 ? max_dts : config.total_dts;
  POETBIN_CHECK_MSG(budget <= max_dts,
                    "total_dts exceeds P^L; increase levels or lut_inputs");
  return train_impl(features, targets, weights, config, config.levels, budget,
                    engine);
}

RincModule RincModule::train_impl(const BitMatrix& features,
                                  const BitVector& targets,
                                  std::span<const double> weights,
                                  const RincConfig& config, std::size_t level,
                                  std::size_t dt_budget,
                                  const BatchEngine* engine) {
  RincModule module;
  const std::size_t n = features.rows();

  if (level == 0) {
    LevelDtConfig dt_config;
    dt_config.n_inputs = config.lut_inputs;
    LevelDtResult fit =
        train_level_dt(features, targets, weights, dt_config, engine);
    module.leaf_ = std::move(fit.lut);
    module.train_error_ = fit.weighted_error;
    return module;
  }

  // Distribute the leaf budget over at most P children, P^(level-1) at a time.
  const std::size_t child_capacity = ipow(config.lut_inputs, level - 1);
  const std::size_t n_children = std::min(
      config.lut_inputs, (dt_budget + child_capacity - 1) / child_capacity);
  POETBIN_CHECK(n_children >= 1);

  AdaboostConfig boost_config = config.adaboost;
  boost_config.n_rounds = n_children;

  std::size_t remaining = dt_budget;
  auto train_weak = [&](std::span<const double> round_weights,
                        std::size_t round) -> BitVector {
    (void)round;
    const std::size_t child_budget = std::min(child_capacity, remaining);
    POETBIN_CHECK(child_budget >= 1);
    remaining -= child_budget;
    RincModule child = train_impl(features, targets, round_weights, config,
                                  level - 1, child_budget, engine);
    // The weak learner's dataset pass rides the bitsliced inference path.
    BitVector predictions = child.eval_dataset_batched(features);
    module.children_.push_back(std::move(child));
    return predictions;
  };

  AdaboostResult boosted =
      run_adaboost(targets, train_weak, boost_config, weights);
  module.mat_ = boosted.mat;
  // The MAT LUT's "inputs" are child-module outputs, not feature indices;
  // index slots are zero-filled and only the table is meaningful.
  module.mat_lut_ = Lut(std::vector<std::size_t>(module.mat_.arity(), 0),
                        module.mat_.to_table());
  module.train_error_ = boosted.train_error;

  // Unweighted check against the boosted predictions: eval() must agree.
  POETBIN_CHECK(module.children_.size() == n_children);
  (void)n;
  return module;
}

std::size_t RincModule::level() const {
  if (is_leaf()) return 0;
  return 1 + children_.front().level();
}

const Lut& RincModule::leaf_lut() const {
  POETBIN_CHECK_MSG(is_leaf(), "leaf_lut() on an internal RINC module");
  return leaf_;
}

const MatModule& RincModule::mat() const {
  POETBIN_CHECK_MSG(!is_leaf(), "mat() on a RINC-0 module");
  return mat_;
}

const Lut& RincModule::mat_lut() const {
  POETBIN_CHECK_MSG(!is_leaf(), "mat_lut() on a RINC-0 module");
  return mat_lut_;
}

std::size_t RincModule::lut_count() const {
  if (is_leaf()) return 1;
  std::size_t total = 1;  // this module's MAT LUT
  for (const auto& child : children_) total += child.lut_count();
  return total;
}

std::size_t RincModule::leaf_dt_count() const {
  if (is_leaf()) return 1;
  std::size_t total = 0;
  for (const auto& child : children_) total += child.leaf_dt_count();
  return total;
}

std::size_t RincModule::depth_in_luts() const {
  if (is_leaf()) return 1;
  std::size_t deepest = 0;
  for (const auto& child : children_) {
    deepest = std::max(deepest, child.depth_in_luts());
  }
  return 1 + deepest;
}

std::vector<std::size_t> RincModule::distinct_features() const {
  // Sorted and deduplicated, so the cost does not depend on how large an
  // index a (possibly hostile) loaded model holds.
  std::vector<std::size_t> out;
  for (const Lut* lut : leaf_luts()) {
    out.insert(out.end(), lut->inputs().begin(), lut->inputs().end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void RincModule::collect_leaves(std::vector<const Lut*>& out) const {
  if (is_leaf()) {
    out.push_back(&leaf_);
    return;
  }
  for (const auto& child : children_) child.collect_leaves(out);
}

std::vector<const Lut*> RincModule::leaf_luts() const {
  std::vector<const Lut*> out;
  collect_leaves(out);
  return out;
}

}  // namespace poetbin
