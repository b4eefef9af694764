#include <algorithm>

#include "dt/level_dt.h"
#include "reference/scalar_reference.h"
#include "util/check.h"

namespace poetbin::reference {

namespace {

std::size_t ipow(std::size_t base, std::size_t exponent) {
  std::size_t result = 1;
  for (std::size_t i = 0; i < exponent; ++i) result *= base;
  return result;
}

// RincModule::train_impl's recursion: a RINC-0 is one LevelDT; a RINC-l
// boosts up to P RINC-(l-1) children, P^(l-1) leaf DTs at a time.
RincFit train_level(const BitMatrix& features, const BitVector& targets,
                    std::span<const double> weights, const RincConfig& config,
                    std::size_t level, std::size_t dt_budget) {
  if (level == 0) {
    LevelDtResult fit = train_level_dt_scalar(
        features, targets, weights, {.n_inputs = config.lut_inputs});
    return {RincModule::make_leaf(std::move(fit.lut)), fit.weighted_error};
  }

  const std::size_t child_capacity = ipow(config.lut_inputs, level - 1);
  const std::size_t n_children = std::min(
      config.lut_inputs, (dt_budget + child_capacity - 1) / child_capacity);
  AdaboostConfig boost_config = config.adaboost;
  boost_config.n_rounds = n_children;

  std::vector<RincModule> children;
  std::size_t remaining = dt_budget;
  auto train_weak = [&](std::span<const double> round_weights, std::size_t) {
    const std::size_t child_budget = std::min(child_capacity, remaining);
    remaining -= child_budget;
    RincFit child = train_level(features, targets, round_weights, config,
                                level - 1, child_budget);
    BitVector predictions = eval_dataset(child.module, features);
    children.push_back(std::move(child.module));
    return predictions;
  };
  AdaboostResult boosted =
      run_adaboost_scalar(targets, train_weak, boost_config, weights);
  return {RincModule::make_internal(std::move(children), boosted.mat),
          boosted.train_error};
}

}  // namespace

RincFit train_rinc_scalar(const BitMatrix& features, const BitVector& targets,
                          std::span<const double> weights,
                          const RincConfig& config) {
  const std::size_t max_dts = ipow(config.lut_inputs, config.levels);
  const std::size_t budget =
      config.total_dts == 0 ? max_dts : config.total_dts;
  POETBIN_CHECK(budget <= max_dts);
  return train_level(features, targets, weights, config, config.levels,
                     budget);
}

}  // namespace poetbin::reference
