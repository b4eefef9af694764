#include "dt/level_dt.h"

#include <gtest/gtest.h>

#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

using testing::bit_accuracy;
using testing::random_bits;
using testing::targets_from;

TEST(LevelDt, LearnsSingleFeatureExactly) {
  const BitMatrix features = random_bits(200, 10, 1);
  const BitVector targets = targets_from(
      features, [](const BitVector& x) { return x.get(4); });
  const LevelDtResult fit =
      train_level_dt(features, targets, {}, {.n_inputs = 1});
  EXPECT_EQ(fit.weighted_error, 0.0);
  EXPECT_EQ(fit.lut.inputs()[0], 4u);
  EXPECT_EQ(bit_accuracy(reference::eval_dataset(fit.lut, features), targets),
            1.0);
}

TEST(LevelDt, LearnsConjunctionExactly) {
  const BitMatrix features = random_bits(500, 12, 2);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return x.get(1) && x.get(7) && x.get(9);
  });
  const LevelDtResult fit =
      train_level_dt(features, targets, {}, {.n_inputs = 3});
  EXPECT_EQ(fit.weighted_error, 0.0);
  // The three relevant features must be among the selected ones.
  std::vector<std::size_t> selected(fit.lut.inputs().begin(),
                                    fit.lut.inputs().end());
  std::sort(selected.begin(), selected.end());
  EXPECT_EQ(selected, (std::vector<std::size_t>{1, 7, 9}));
}

TEST(LevelDt, LearnsXorGivenEnoughInputs) {
  // XOR of two features has zero marginal information per feature, but the
  // level-wise DT still fits it perfectly once both features are available
  // (any first split yields children where the second feature is decisive).
  const BitMatrix features = random_bits(600, 8, 3);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return x.get(2) != x.get(5);
  });
  const LevelDtResult fit =
      train_level_dt(features, targets, {}, {.n_inputs = 8});
  EXPECT_EQ(fit.weighted_error, 0.0);
}

TEST(LevelDt, SelectsNoDuplicateFeatures) {
  const BitMatrix features = random_bits(300, 20, 4);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(0); });
  const LevelDtResult fit =
      train_level_dt(features, targets, {}, {.n_inputs = 6});
  std::vector<std::size_t> selected(fit.lut.inputs().begin(),
                                    fit.lut.inputs().end());
  std::sort(selected.begin(), selected.end());
  EXPECT_EQ(std::adjacent_find(selected.begin(), selected.end()),
            selected.end());
  EXPECT_EQ(selected.size(), 6u);
}

TEST(LevelDt, CandidateRestrictionHonoured) {
  const BitMatrix features = random_bits(300, 16, 5);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(3); });
  LevelDtConfig config;
  config.n_inputs = 2;
  config.candidate_features = {8, 9, 10};  // the informative feature excluded
  const LevelDtResult fit = train_level_dt(features, targets, {}, config);
  for (const auto f : fit.lut.inputs()) {
    EXPECT_TRUE(f == 8 || f == 9 || f == 10);
  }
}

TEST(LevelDt, WeightsSteerFeatureChoice) {
  // Two candidate features, each perfectly predicting a disjoint half of the
  // examples; upweighting one half must make its feature win level 0.
  const std::size_t n = 400;
  BitMatrix features(n, 2);
  BitVector targets(n);
  Rng rng(6);
  for (std::size_t i = 0; i < n; ++i) {
    const bool label = rng.next_bool();
    targets.set(i, label);
    if (i < n / 2) {
      features.set(i, 0, label);        // feature 0 predicts first half
      features.set(i, 1, rng.next_bool());
    } else {
      features.set(i, 1, label);        // feature 1 predicts second half
      features.set(i, 0, rng.next_bool());
    }
  }
  std::vector<double> weights(n, 1e-6);
  for (std::size_t i = n / 2; i < n; ++i) weights[i] = 1.0;
  const LevelDtResult fit =
      train_level_dt(features, targets, weights, {.n_inputs = 1});
  EXPECT_EQ(fit.lut.inputs()[0], 1u);
}

TEST(LevelDt, MajorityLeafLabellingOnNoise) {
  // With a noisy single informative feature, the LUT must still follow the
  // majority in each cell (i.e. reproduce the feature, not the noise).
  const BitMatrix features = random_bits(2000, 6, 7);
  const BitVector targets = targets_from(
      features, [](const BitVector& x) { return x.get(2); }, 0.2, 8);
  const LevelDtResult fit =
      train_level_dt(features, targets, {}, {.n_inputs = 1});
  EXPECT_EQ(fit.lut.inputs()[0], 2u);
  // Error close to the noise floor.
  EXPECT_NEAR(fit.weighted_error, 0.2, 0.04);
}

TEST(LevelDt, DeterministicAcrossRuns) {
  const BitMatrix features = random_bits(300, 24, 9);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return (x.get(0) && x.get(5)) || x.get(11);
  });
  const LevelDtResult a = train_level_dt(features, targets, {}, {.n_inputs = 5});
  const LevelDtResult b = train_level_dt(features, targets, {}, {.n_inputs = 5});
  EXPECT_EQ(a.lut, b.lut);
}

TEST(LevelDt, EmptyCellsDefaultToClassOne) {
  // One example, one feature=0: the cell for feature=1 is empty and must be
  // labelled 1 per Algorithm 1's S0 <= S1 rule.
  BitMatrix features(1, 1);
  BitVector targets(1);  // class 0
  const LevelDtResult fit =
      train_level_dt(features, targets, {}, {.n_inputs = 1});
  EXPECT_FALSE(fit.lut.table().get(0));  // observed cell: majority class 0
  EXPECT_TRUE(fit.lut.table().get(1));   // empty cell: defaults to 1
}

TEST(LevelDt, ErrorNeverWorseThanMajorityGuess) {
  // Property: the trained LUT's weighted error can never exceed
  // min(p, 1-p) of the target distribution (it can always label all cells
  // with the majority class).
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const BitMatrix features = random_bits(300, 10, 100 + seed);
    const BitVector targets = targets_from(
        features,
        [seed](const BitVector& x) {
          return testing::popcount(x) % (2 + seed % 3) == 0;
        },
        0.1, seed);
    const LevelDtResult fit =
        train_level_dt(features, targets, {}, {.n_inputs = 4});
    const double p =
        static_cast<double>(testing::popcount(targets)) / targets.size();
    EXPECT_LE(fit.weighted_error, std::min(p, 1.0 - p) + 1e-12)
        << "seed " << seed;
  }
}

// Sweep: a parity function of k features requires exactly k inputs; the
// level DT must fit it perfectly whenever n_inputs >= k and the sample
// covers the space.
class LevelDtParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LevelDtParityTest, FitsParityWithEnoughInputs) {
  const std::size_t k = GetParam();
  const BitMatrix features = random_bits(2000, 8, 10 + k);
  const BitVector targets = targets_from(features, [k](const BitVector& x) {
    return testing::popcount_prefix(x, k) % 2 == 1;
  });
  const LevelDtResult fit =
      train_level_dt(features, targets, {}, {.n_inputs = 8});
  EXPECT_EQ(fit.weighted_error, 0.0) << "parity of " << k;
}

INSTANTIATE_TEST_SUITE_P(ParityWidths, LevelDtParityTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Sweep over P: a majority-of-P function fits exactly in a P-input LUT, and
// the level DT must find precisely the P voter features among distractors.
class LevelDtAritySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LevelDtAritySweep, MajorityOfPFitsExactly) {
  const std::size_t p = GetParam();
  const BitMatrix features = random_bits(3000, 20, 200 + p);
  const BitVector targets = targets_from(features, [p](const BitVector& x) {
    return 2 * testing::popcount_prefix(x, p) >= p;
  });
  const LevelDtResult fit =
      train_level_dt(features, targets, {}, {.n_inputs = p});
  EXPECT_EQ(fit.weighted_error, 0.0) << "P=" << p;
  std::vector<std::size_t> selected(fit.lut.inputs().begin(),
                                    fit.lut.inputs().end());
  std::sort(selected.begin(), selected.end());
  for (std::size_t j = 0; j < p; ++j) {
    EXPECT_EQ(selected[j], j) << "P=" << p;
  }
}

TEST_P(LevelDtAritySweep, LutHasExactlyPInputsAndFullTable) {
  const std::size_t p = GetParam();
  const BitMatrix features = random_bits(400, 16, 300 + p);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(0); });
  const LevelDtResult fit =
      train_level_dt(features, targets, {}, {.n_inputs = p});
  EXPECT_EQ(fit.lut.arity(), p);
  EXPECT_EQ(fit.lut.table_size(), std::size_t{1} << p);
}

INSTANTIATE_TEST_SUITE_P(Arities, LevelDtAritySweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LevelDt, DuplicateCandidatesAreDeduplicated) {
  // Duplicated entries used to satisfy the candidate-count check yet run the
  // per-level scan out of unique features mid-way, dying on the opaque
  // sentinel check. Dedup keeps them harmless.
  const BitMatrix features = random_bits(300, 16, 12);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(9); });
  LevelDtConfig config;
  config.n_inputs = 3;
  config.candidate_features = {8, 8, 9, 9, 10, 10};
  const LevelDtResult fit = train_level_dt(features, targets, {}, config);
  std::vector<std::size_t> selected(fit.lut.inputs().begin(),
                                    fit.lut.inputs().end());
  std::sort(selected.begin(), selected.end());
  EXPECT_EQ(selected, (std::vector<std::size_t>{8, 9, 10}));
}

TEST(LevelDt, DuplicateCandidatesMatchUniqueCandidateRuns) {
  const BitMatrix features = random_bits(400, 12, 13);
  const BitVector targets = targets_from(
      features, [](const BitVector& x) { return x.get(2) != x.get(7); }, 0.1,
      14);
  LevelDtConfig with_dups;
  with_dups.n_inputs = 4;
  with_dups.candidate_features = {2, 7, 2, 5, 7, 9, 5, 11, 9};
  LevelDtConfig unique = with_dups;
  unique.candidate_features = {2, 7, 5, 9, 11};
  const LevelDtResult a = train_level_dt(features, targets, {}, with_dups);
  const LevelDtResult b = train_level_dt(features, targets, {}, unique);
  EXPECT_EQ(a.lut, b.lut);
}

TEST(LevelDt, RefusesTooFewUniqueCandidates) {
  // Six entries but only three unique features cannot fill four levels; the
  // entry check must fire with an actionable message instead of the scan
  // dying mid-level.
  const BitMatrix features = random_bits(50, 16, 15);
  const BitVector targets(50);
  LevelDtConfig config;
  config.n_inputs = 4;
  config.candidate_features = {8, 8, 9, 9, 10, 10};
  EXPECT_DEATH(train_level_dt(features, targets, {}, config),
               "not enough candidate features");
}

TEST(LevelDt, RefusesOversizedArity) {
  const BitMatrix features = random_bits(10, 3, 11);
  const BitVector targets(10);
  EXPECT_DEATH(train_level_dt(features, targets, {}, {.n_inputs = 4}), "");
}

}  // namespace
}  // namespace poetbin
