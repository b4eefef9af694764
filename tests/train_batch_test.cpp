// Word-parallel training paths vs their scalar references (the LevelDT
// scalar scan and the tests/reference oracles): bit-identical LevelDT fits,
// Adaboost weight trajectories and RINC modules on ragged dataset sizes,
// empty-weight-span defaulting, and tail-word hygiene after raw-word writes.
#include <gtest/gtest.h>

#include <vector>

#include "boost/adaboost.h"
#include "core/batch_eval.h"
#include "core/rinc.h"
#include "dt/level_dt.h"
#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

using testing::random_bits;
using testing::targets_from;

std::vector<double> lognormal_weights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  double total = 0.0;
  for (auto& w : weights) {
    w = std::exp(rng.gaussian(0.0, 1.0));
    total += w;
  }
  for (auto& w : weights) w /= total;
  return weights;
}

void expect_same_fit(const LevelDtResult& scalar, const LevelDtResult& sliced,
                     std::size_t n) {
  EXPECT_EQ(scalar.lut, sliced.lut) << "n=" << n;
  EXPECT_EQ(scalar.final_entropy, sliced.final_entropy) << "n=" << n;
  EXPECT_EQ(scalar.weighted_error, sliced.weighted_error) << "n=" << n;
}

// The ragged sweep: sizes around the word boundary plus a multi-word size.
class WordParallelRaggedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WordParallelRaggedTest, LevelDtFitsBitIdentical) {
  const std::size_t n = GetParam();
  const BitMatrix features = random_bits(n, 24, 100 + n);
  const BitVector targets = targets_from(
      features, [](const BitVector& x) { return x.get(1) != x.get(5); }, 0.1,
      n);
  const std::vector<double> weights = lognormal_weights(n, 7 + n);

  const LevelDtResult scalar =
      train_level_dt_scalar(features, targets, weights, {.n_inputs = 5});
  const LevelDtResult sliced =
      train_level_dt(features, targets, weights, {.n_inputs = 5});
  expect_same_fit(scalar, sliced, n);
}

TEST_P(WordParallelRaggedTest, LevelDtThreadedScanMatchesSerial) {
  const std::size_t n = GetParam();
  const BitMatrix features = random_bits(n, 20, 200 + n);
  const BitVector targets = targets_from(
      features, [](const BitVector& x) { return x.get(0) && x.get(3); }, 0.05,
      n);
  const std::vector<double> weights = lognormal_weights(n, 9 + n);

  const LevelDtConfig config{.n_inputs = 4};
  const LevelDtResult serial =
      train_level_dt(features, targets, weights, config);
  const BatchEngine engine(4);
  const LevelDtResult threaded =
      train_level_dt(features, targets, weights, config, &engine);
  expect_same_fit(serial, threaded, n);

  const LevelDtResult scalar =
      train_level_dt_scalar(features, targets, weights, config);
  expect_same_fit(scalar, threaded, n);
}

TEST_P(WordParallelRaggedTest, AdaboostTrajectoriesBitIdentical) {
  const std::size_t n = GetParam();
  const BitMatrix features = random_bits(n, 9, 300 + n);
  const BitVector targets = targets_from(
      features,
      [](const BitVector& x) {
        return static_cast<int>(x.get(0)) + x.get(1) + x.get(2) >= 2;
      },
      0.05, n);

  // The probe records every weight vector each path's weak learner sees.
  auto probe_into = [&](bool scalar, std::vector<std::vector<double>>& seen) {
    return [&, scalar](std::span<const double> weights, std::size_t round) {
      seen.emplace_back(weights.begin(), weights.end());
      LevelDtConfig config{.n_inputs = 1};
      // Rotate the stump's candidate pool so rounds differ.
      config.candidate_features = {round % 9, (round + 3) % 9, (round + 6) % 9};
      const LevelDtResult fit =
          scalar ? train_level_dt_scalar(features, targets, weights, config)
                 : train_level_dt(features, targets, weights, config);
      return reference::eval_dataset(fit.lut, features);
    };
  };

  std::vector<std::vector<double>> scalar_seen, word_seen;
  const AdaboostResult scalar = reference::run_adaboost_scalar(
      targets, probe_into(true, scalar_seen), {.n_rounds = 4});
  const AdaboostResult word =
      run_adaboost(targets, probe_into(false, word_seen), {.n_rounds = 4});

  ASSERT_EQ(scalar.rounds.size(), word.rounds.size());
  for (std::size_t r = 0; r < scalar.rounds.size(); ++r) {
    EXPECT_EQ(scalar.rounds[r].alpha, word.rounds[r].alpha) << "round " << r;
    EXPECT_EQ(scalar.rounds[r].weighted_error, word.rounds[r].weighted_error)
        << "round " << r;
  }
  ASSERT_EQ(scalar_seen.size(), word_seen.size());
  for (std::size_t r = 0; r < scalar_seen.size(); ++r) {
    EXPECT_EQ(scalar_seen[r], word_seen[r]) << "weights at round " << r;
  }
  EXPECT_EQ(scalar.mat.weights(), word.mat.weights());
  EXPECT_TRUE(scalar.train_predictions == word.train_predictions);
  EXPECT_EQ(scalar.train_error, word.train_error);
}

INSTANTIATE_TEST_SUITE_P(RaggedSizes, WordParallelRaggedTest,
                         ::testing::Values(1, 63, 64, 65, 1000));

TEST(WordParallelTraining, EmptyWeightSpanDefaultsToUniform) {
  const BitMatrix features = random_bits(500, 16, 11);
  const BitVector targets = targets_from(
      features, [](const BitVector& x) { return x.get(2); }, 0.1, 12);
  const std::vector<double> uniform(500, 1.0 / 500.0);

  const LevelDtConfig config{.n_inputs = 4};
  for (const bool scalar : {true, false}) {
    auto fit = [&](std::span<const double> weights) {
      return scalar ? train_level_dt_scalar(features, targets, weights, config)
                    : train_level_dt(features, targets, weights, config);
    };
    const LevelDtResult defaulted = fit({});
    const LevelDtResult explicit_uniform = fit(uniform);
    EXPECT_EQ(defaulted.lut, explicit_uniform.lut);
    EXPECT_EQ(defaulted.weighted_error, explicit_uniform.weighted_error);
  }
}

TEST(WordParallelTraining, RincModulesIdenticalAcrossPaths) {
  const BitMatrix features = random_bits(800, 40, 21);
  const BitVector targets = targets_from(
      features,
      [](const BitVector& x) {
        return static_cast<int>(x.get(3)) + x.get(11) + x.get(29) >= 2;
      },
      0.08, 22);

  const RincConfig config{.lut_inputs = 4, .levels = 2, .total_dts = 10};
  const reference::RincFit reference_fit =
      reference::train_rinc_scalar(features, targets, {}, config);
  const RincModule& scalar = reference_fit.module;
  const RincModule word = RincModule::train(features, targets, {}, config);

  EXPECT_EQ(reference_fit.train_error, word.train_error());
  EXPECT_TRUE(reference::eval_dataset(scalar, features) ==
              reference::eval_dataset(word, features));
  const auto scalar_leaves = scalar.leaf_luts();
  const auto word_leaves = word.leaf_luts();
  ASSERT_EQ(scalar_leaves.size(), word_leaves.size());
  for (std::size_t i = 0; i < scalar_leaves.size(); ++i) {
    EXPECT_EQ(*scalar_leaves[i], *word_leaves[i]) << "leaf " << i;
  }
  // Every internal node's MAT table; the alphas behind them are held
  // bit-identical at the Adaboost level above.
  const auto mat_luts = [](const RincModule& root) {
    std::vector<Lut> out;
    const auto walk = [&out](const auto& self, const RincModule& m) -> void {
      if (m.is_leaf()) return;
      out.push_back(m.mat_lut());
      for (const RincModule& child : m.children()) self(self, child);
    };
    walk(walk, root);
    return out;
  };
  const std::vector<Lut> scalar_mats = mat_luts(scalar);
  EXPECT_EQ(scalar_mats.size(), 4u);  // a RINC-2 root over three RINC-1s
  EXPECT_EQ(scalar_mats, mat_luts(word));
}

TEST(WordParallelTraining, RincTrainWithEngineMatchesSerial) {
  const BitMatrix features = random_bits(600, 32, 31);
  const BitVector targets = targets_from(
      features, [](const BitVector& x) { return x.get(7) != x.get(15); }, 0.1,
      32);

  const RincConfig config{.lut_inputs = 4, .levels = 1, .total_dts = 4};
  const RincModule serial = RincModule::train(features, targets, {}, config);
  const BatchEngine engine(4);
  const RincModule threaded =
      RincModule::train(features, targets, {}, config, &engine);
  EXPECT_EQ(serial.train_error(), threaded.train_error());
  EXPECT_TRUE(reference::eval_dataset(serial, features) ==
              reference::eval_dataset(threaded, features));
}

TEST(WordParallelTraining, ToleratesDirtyColumnTailWords) {
  // Raw-word writers that skip mask_tail_word() leave garbage beyond
  // rows(); the scalar scan never reads past n, and the word-parallel scan
  // must mask the tail instead of indexing cell/weight arrays out of
  // bounds (caught under ASan) or counting phantom examples.
  const std::size_t n = 70;  // 6 live bits in the tail word
  BitMatrix clean = random_bits(n, 12, 41);
  const BitVector targets = targets_from(
      clean, [](const BitVector& x) { return x.get(4); }, 0.1, 42);
  BitMatrix dirty = clean;
  for (std::size_t c = 0; c < dirty.cols(); ++c) {
    dirty.column(c).words()[dirty.word_count() - 1] |= ~0ULL << (n % 64);
  }
  const std::vector<double> weights = lognormal_weights(n, 43);

  const LevelDtResult reference =
      train_level_dt_scalar(clean, targets, weights, {.n_inputs = 4});
  const LevelDtResult sliced =
      train_level_dt(dirty, targets, weights, {.n_inputs = 4});
  expect_same_fit(reference, sliced, n);
}

TEST(WordParallelTraining, HugeArityFallsBackWithoutCarriedBuffers) {
  // 600 candidates x 2^16 cells of carried masses would be ~300 MiB; the
  // dispatch must fall back to the scalar scan (identical results) instead
  // of allocating that.
  const std::size_t n = 64;
  const BitMatrix features = random_bits(n, 600, 51);
  const BitVector targets = targets_from(
      features, [](const BitVector& x) { return x.get(10); }, 0.2, 52);
  const LevelDtResult scalar =
      train_level_dt_scalar(features, targets, {}, {.n_inputs = 16});
  const LevelDtResult word =
      train_level_dt(features, targets, {}, {.n_inputs = 16});
  expect_same_fit(scalar, word, n);
}

TEST(WordParallelTraining, TailWordMaskingAfterRawWordWrites) {
  // Raw-word writers may leave garbage beyond size(); mask_tail_word() must
  // restore the invariant, and the word-span consumers (xor_into, masked
  // weighted sums) must not see phantom bits.
  const std::size_t n = 65;
  BitVector a(n), b(n);
  a.words()[0] = 0xDEADBEEFDEADBEEFULL;
  a.words()[1] = ~0ULL;  // 63 garbage bits beyond n
  a.mask_tail_word();
  b.words()[0] = 0x0123456789ABCDEFULL;
  b.words()[1] = ~0ULL;
  b.mask_tail_word();

  EXPECT_EQ(testing::popcount(a), testing::popcount_prefix(a, n));
  std::size_t expected_pop = 0;
  for (std::size_t i = 0; i < n; ++i) expected_pop += a.get(i);
  EXPECT_EQ(testing::popcount(a), expected_pop);

  BitVector x;
  a.xor_into(b, x);
  ASSERT_EQ(x.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(x.get(i), a.get(i) != b.get(i)) << "bit " << i;
  }
  EXPECT_EQ(testing::popcount(x), a.hamming(b));

  // All-ones weights turn the masked sum into a popcount; phantom tail bits
  // would inflate it (or read out of bounds).
  const std::vector<double> ones(n, 1.0);
  EXPECT_EQ(x.masked_weighted_sum(ones),
            static_cast<double>(testing::popcount(x)));

  // The raw-word-span variant must also ignore bits beyond n_bits even when
  // handed a dirty tail word directly: bits 1..63 of the second word are all
  // out of range for n = 65, so the sum must not change.
  std::vector<std::uint64_t> dirty(x.words(), x.words() + x.word_count());
  dirty.back() |= ~0ULL << 1;
  EXPECT_EQ(masked_weighted_sum_words(dirty, ones, n),
            static_cast<double>(testing::popcount(x)));
}

}  // namespace
}  // namespace poetbin
