#include "boost/adaboost.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"
#include "util/word_backend.h"

namespace poetbin {

AdaboostResult run_adaboost(const BitVector& targets, WeakTrainFn train_weak,
                            const AdaboostConfig& config,
                            std::span<const double> initial_weights) {
  const std::size_t n = targets.size();
  POETBIN_CHECK(n > 0);
  POETBIN_CHECK(config.n_rounds >= 1);
  POETBIN_CHECK_MSG(config.n_rounds <= 64,
                    "n_rounds > 64 would overflow the 64-bit combo bitmask of "
                    "the combined prediction; use at most 64 rounds per MAT");

  std::vector<double> weights;
  if (initial_weights.empty()) {
    weights.assign(n, 1.0 / static_cast<double>(n));
  } else {
    POETBIN_CHECK(initial_weights.size() == n);
    double initial_total = 0.0;
    for (const double w : initial_weights) {
      POETBIN_CHECK_MSG(w >= 0.0, "initial_weights must be non-negative");
      initial_total += w;
    }
    POETBIN_CHECK_MSG(initial_total > 0.0,
                      "initial_weights must carry positive total mass; an "
                      "all-zero distribution cannot be boosted");
    weights.assign(initial_weights.begin(), initial_weights.end());
  }

  AdaboostResult result;
  std::vector<double> alphas;
  std::vector<BitVector> round_predictions;
  alphas.reserve(config.n_rounds);
  round_predictions.reserve(config.n_rounds);

  BitVector disagreement;  // preds ^ targets, reused across rounds

  for (std::size_t round = 0; round < config.n_rounds; ++round) {
    BitVector predictions = train_weak(weights, round);
    POETBIN_CHECK(predictions.size() == n);

    // One xor pass gives the disagreement mask; epsilon is then a masked
    // weighted sum over its words. Both accumulators add the same terms in
    // the same order as a per-example loop, so the doubles are identical.
    predictions.xor_into(targets, disagreement);
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    double epsilon = disagreement.masked_weighted_sum(weights);
    POETBIN_CHECK(total > 0.0);
    epsilon /= total;

    const double clamped =
        std::clamp(epsilon, config.epsilon_clamp, 1.0 - config.epsilon_clamp);
    const double alpha = 0.5 * std::log((1.0 - clamped) / clamped);

    result.rounds.push_back({alpha, epsilon});
    alphas.push_back(alpha);
    round_predictions.push_back(std::move(predictions));

    // Reweight: w_i *= exp(-alpha * y_i * h_i), then renormalise. The
    // agreement y_i * h_i is +-1, so the factor takes only two values; the
    // whole pass becomes a branchless multiply steered by the disagreement
    // bit (exp(-alpha * +-1.0) == exp(-+alpha) exactly). The multiplies are
    // elementwise and therefore exact at any SIMD width; the renormalisation
    // total is summed afterwards in ascending index order — the same terms
    // in the same order as a per-example loop, so the doubles are identical.
    word_ops().scale_by_mask(disagreement.words(), n, std::exp(-alpha),
                             std::exp(alpha), weights.data());
    double new_total = 0.0;
    for (const double w : weights) new_total += w;
    POETBIN_CHECK(new_total > 0.0);
    for (auto& w : weights) w /= new_total;
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

}  // namespace poetbin
