#include "boost/adaboost.h"

#include <gtest/gtest.h>

#include "dt/level_dt.h"
#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

using testing::random_bits;
using testing::targets_from;

// Weak learner: depth-1 level DT (a decision stump restricted to one LUT
// input) — weak enough that boosting has something to do.
WeakTrainFn stump_trainer(const BitMatrix& features, const BitVector& targets,
                          std::vector<Lut>& store) {
  return [&features, &targets, &store](std::span<const double> weights,
                                       std::size_t) {
    const LevelDtResult fit =
        train_level_dt(features, targets, weights, {.n_inputs = 1});
    store.push_back(fit.lut);
    return reference::eval_dataset(fit.lut, features);
  };
}

TEST(Adaboost, BoostedStumpsBeatSingleStumpOnMajorityFunction) {
  const BitMatrix features = random_bits(1200, 9, 1);
  // Majority of three features: each single feature is a weak predictor.
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return static_cast<int>(x.get(0)) + x.get(1) + x.get(2) >= 2;
  });

  std::vector<Lut> store;
  const AdaboostResult boosted = run_adaboost(
      targets, stump_trainer(features, targets, store), {.n_rounds = 5});

  const LevelDtResult single =
      train_level_dt(features, targets, {}, {.n_inputs = 1});
  EXPECT_LT(boosted.train_error, single.weighted_error);
  EXPECT_LT(boosted.train_error, 0.05);
}

TEST(Adaboost, RoundCountAndMatArityMatch) {
  const BitMatrix features = random_bits(300, 5, 2);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(0); });
  std::vector<Lut> store;
  const AdaboostResult boosted = run_adaboost(
      targets, stump_trainer(features, targets, store), {.n_rounds = 4});
  EXPECT_EQ(boosted.rounds.size(), 4u);
  EXPECT_EQ(boosted.mat.arity(), 4u);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(boosted.train_predictions.size(), targets.size());
}

TEST(Adaboost, AlphaPositiveForBetterThanChanceWeak) {
  const BitMatrix features = random_bits(500, 6, 3);
  const BitVector targets = targets_from(
      features, [](const BitVector& x) { return x.get(1); }, 0.1, 4);
  std::vector<Lut> store;
  const AdaboostResult boosted = run_adaboost(
      targets, stump_trainer(features, targets, store), {.n_rounds = 3});
  EXPECT_GT(boosted.rounds[0].alpha, 0.0);
  EXPECT_LT(boosted.rounds[0].weighted_error, 0.5);
}

TEST(Adaboost, PerfectWeakLearnerGetsCappedAlpha) {
  const BitMatrix features = random_bits(100, 4, 5);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(2); });
  std::vector<Lut> store;
  AdaboostConfig config;
  config.n_rounds = 2;
  config.epsilon_clamp = 1e-4;
  const AdaboostResult boosted =
      run_adaboost(targets, stump_trainer(features, targets, store), config);
  EXPECT_EQ(boosted.rounds[0].weighted_error, 0.0);
  // alpha = 0.5 ln((1-eps)/eps) with eps clamped to 1e-4.
  EXPECT_NEAR(boosted.rounds[0].alpha, 0.5 * std::log((1.0 - 1e-4) / 1e-4),
              1e-9);
  EXPECT_EQ(boosted.train_error, 0.0);
}

TEST(Adaboost, TrainPredictionsConsistentWithMatOverRounds) {
  const BitMatrix features = random_bits(400, 8, 6);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return x.get(0) != x.get(3);
  });
  std::vector<Lut> store;
  const AdaboostResult boosted = run_adaboost(
      targets, stump_trainer(features, targets, store), {.n_rounds = 6});
  // Recompute combined predictions from the stored weak LUTs + MAT.
  std::vector<BitVector> weak_outputs;
  for (const auto& lut : store) {
    weak_outputs.push_back(reference::eval_dataset(lut, features));
  }
  for (std::size_t i = 0; i < features.rows(); ++i) {
    std::size_t combo = 0;
    for (std::size_t r = 0; r < weak_outputs.size(); ++r) {
      if (weak_outputs[r].get(i)) combo |= std::size_t{1} << r;
    }
    EXPECT_EQ(boosted.train_predictions.get(i), boosted.mat.eval_combo(combo));
  }
}

TEST(Adaboost, InitialWeightsRespected) {
  // Give all mass to the second half; the first-round stump must fit it.
  const std::size_t n = 200;
  BitMatrix features(n, 2);
  BitVector targets(n);
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    const bool label = rng.next_bool();
    targets.set(i, label);
    if (i < n / 2) {
      features.set(i, 0, label);
      features.set(i, 1, rng.next_bool());
    } else {
      features.set(i, 1, label);
      features.set(i, 0, rng.next_bool());
    }
  }
  std::vector<double> initial(n, 0.0);
  for (std::size_t i = n / 2; i < n; ++i) initial[i] = 2.0 / n;

  std::vector<Lut> store;
  run_adaboost(targets, stump_trainer(features, targets, store),
               {.n_rounds = 1}, initial);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store[0].inputs()[0], 1u);
}

TEST(Adaboost, RejectsMoreThan64Rounds) {
  // The combined prediction packs one bit per round into a 64-bit combo
  // mask; round 65 would shift out of range (undefined behavior before the
  // guard existed).
  const BitMatrix features = random_bits(50, 4, 9);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(0); });
  std::vector<Lut> store;
  EXPECT_DEATH(run_adaboost(targets, stump_trainer(features, targets, store),
                            {.n_rounds = 65}),
               "overflow the 64-bit combo");
}

TEST(Adaboost, RejectsAllZeroInitialWeights) {
  const BitMatrix features = random_bits(50, 4, 10);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(1); });
  std::vector<Lut> store;
  const std::vector<double> zeros(targets.size(), 0.0);
  EXPECT_DEATH(run_adaboost(targets, stump_trainer(features, targets, store),
                            {.n_rounds = 2}, zeros),
               "positive total mass");
}

TEST(Adaboost, RejectsNegativeInitialWeights) {
  const BitMatrix features = random_bits(50, 4, 11);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(2); });
  std::vector<Lut> store;
  std::vector<double> weights(targets.size(), 1.0 / targets.size());
  weights[17] = -0.25;
  EXPECT_DEATH(run_adaboost(targets, stump_trainer(features, targets, store),
                            {.n_rounds = 2}, weights),
               "non-negative");
}

TEST(Adaboost, ReweightingFocusesOnMistakes) {
  // After round 1 the misclassified examples' weights must have grown;
  // verify via a probe trainer that records the weights it sees.
  const BitMatrix features = random_bits(300, 6, 8);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return static_cast<int>(x.get(0)) + x.get(1) + x.get(2) >= 2;
  });

  std::vector<std::vector<double>> seen_weights;
  std::vector<Lut> store;
  auto probe = [&](std::span<const double> weights, std::size_t /*round*/) {
    seen_weights.emplace_back(weights.begin(), weights.end());
    const LevelDtResult fit =
        train_level_dt(features, targets, weights, {.n_inputs = 1});
    store.push_back(fit.lut);
    return reference::eval_dataset(fit.lut, features);
  };
  run_adaboost(targets, probe, {.n_rounds = 2});
  ASSERT_EQ(seen_weights.size(), 2u);

  const BitVector round0 = reference::eval_dataset(store[0], features);
  double wrong_mass = 0.0;
  double right_mass = 0.0;
  for (std::size_t i = 0; i < features.rows(); ++i) {
    if (round0.get(i) != targets.get(i)) {
      wrong_mass += seen_weights[1][i];
    } else {
      right_mass += seen_weights[1][i];
    }
  }
  // Adaboost's reweighting equalises the two masses (each becomes 1/2).
  EXPECT_NEAR(wrong_mass, 0.5, 0.05);
  EXPECT_NEAR(right_mass, 0.5, 0.05);
}

}  // namespace
}  // namespace poetbin
