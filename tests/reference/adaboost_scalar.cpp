#include <algorithm>
#include <cmath>

#include "reference/scalar_reference.h"
#include "util/check.h"

namespace poetbin::reference {

AdaboostResult run_adaboost_scalar(const BitVector& targets,
                                   WeakTrainFn train_weak,
                                   const AdaboostConfig& config,
                                   std::span<const double> initial_weights) {
  const std::size_t n = targets.size();
  POETBIN_CHECK(n > 0);
  POETBIN_CHECK(config.n_rounds >= 1 && config.n_rounds <= 64);

  std::vector<double> weights;
  if (initial_weights.empty()) {
    weights.assign(n, 1.0 / static_cast<double>(n));
  } else {
    POETBIN_CHECK(initial_weights.size() == n);
    weights.assign(initial_weights.begin(), initial_weights.end());
  }

  AdaboostResult result;
  std::vector<double> alphas;
  std::vector<BitVector> round_predictions;

  for (std::size_t round = 0; round < config.n_rounds; ++round) {
    BitVector predictions = train_weak(weights, round);
    POETBIN_CHECK(predictions.size() == n);

    double epsilon = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += weights[i];
      if (predictions.get(i) != targets.get(i)) epsilon += weights[i];
    }
    POETBIN_CHECK(total > 0.0);
    epsilon /= total;

    const double clamped =
        std::clamp(epsilon, config.epsilon_clamp, 1.0 - config.epsilon_clamp);
    const double alpha = 0.5 * std::log((1.0 - clamped) / clamped);

    result.rounds.push_back({alpha, epsilon});
    alphas.push_back(alpha);

    // Reweight: w_i *= exp(-alpha * y_i * h_i), then renormalise.
    double new_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double agreement =
          (predictions.get(i) == targets.get(i)) ? 1.0 : -1.0;
      weights[i] *= std::exp(-alpha * agreement);
      new_total += weights[i];
    }
    POETBIN_CHECK(new_total > 0.0);
    for (auto& w : weights) w /= new_total;
    round_predictions.push_back(std::move(predictions));
  }

  result.mat = MatModule(std::move(alphas));

  // Combined prediction per training example.
  result.train_predictions = BitVector(n);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t combo = 0;
    for (std::size_t r = 0; r < round_predictions.size(); ++r) {
      if (round_predictions[r].get(i)) combo |= std::size_t{1} << r;
    }
    const bool decision = result.mat.eval_combo(combo);
    if (decision) result.train_predictions.set(i, true);
    if (decision != targets.get(i)) ++errors;
  }
  result.train_error = static_cast<double>(errors) / static_cast<double>(n);
  return result;
}

}  // namespace poetbin::reference
