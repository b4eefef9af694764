#include "core/rinc.h"

#include <gtest/gtest.h>

#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

using testing::bit_accuracy;
using testing::random_bits;
using testing::targets_from;

TEST(Rinc, Level0IsASingleLut) {
  const BitMatrix features = random_bits(300, 10, 1);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(4); });
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 4, .levels = 0, .total_dts = 1});
  EXPECT_TRUE(module.is_leaf());
  EXPECT_EQ(module.level(), 0u);
  EXPECT_EQ(module.lut_count(), 1u);
  EXPECT_EQ(module.depth_in_luts(), 1u);
  EXPECT_EQ(module.train_error(), 0.0);
}

TEST(Rinc, FullRincOneStructure) {
  const BitMatrix features = random_bits(400, 30, 2);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return testing::popcount_prefix(x, 9) >= 5;
  });
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 4, .levels = 1, .total_dts = 4});
  EXPECT_FALSE(module.is_leaf());
  EXPECT_EQ(module.level(), 1u);
  EXPECT_EQ(module.children().size(), 4u);
  EXPECT_EQ(module.leaf_dt_count(), 4u);
  EXPECT_EQ(module.lut_count(), 5u);  // 4 DTs + 1 MAT
  EXPECT_EQ(module.depth_in_luts(), 2u);
  EXPECT_EQ(module.fanin(), 4u);
}

TEST(Rinc, FullTreeLutCountMatchesClosedForm) {
  // (P^(L+1)-1)/(P-1), the formula of SS2.1.3.
  EXPECT_EQ(full_rinc_lut_count(6, 2), 43u);
  EXPECT_EQ(full_rinc_lut_count(8, 2), 73u);
  EXPECT_EQ(full_rinc_lut_count(6, 1), 7u);
  EXPECT_EQ(full_rinc_lut_count(2, 3), 15u);

  const BitMatrix features = random_bits(300, 40, 3);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return testing::popcount(x) % 2 == 0;
  });
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 3, .levels = 2, .total_dts = 9});
  EXPECT_EQ(module.lut_count(), full_rinc_lut_count(3, 2));
  EXPECT_EQ(module.depth_in_luts(), 3u);
}

TEST(Rinc, PartialBudgetGroupsLikeThePaper) {
  // MNIST config: 32 DTs at P=8 -> 4 subgroups of 8, 37 LUTs per module.
  const BitMatrix features = random_bits(500, 64, 4);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return testing::popcount_prefix(x, 16) >= 8;
  });
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 8, .levels = 2, .total_dts = 32});
  EXPECT_EQ(module.leaf_dt_count(), 32u);
  EXPECT_EQ(module.children().size(), 4u);  // ceil(32/8)
  for (const auto& child : module.children()) {
    EXPECT_EQ(child.children().size(), 8u);
  }
  EXPECT_EQ(module.lut_count(), 37u);  // 32 + 4 + 1, as in SS4.3
}

TEST(Rinc, SvhnConfigGives43LutsPerModule) {
  const BitMatrix features = random_bits(400, 64, 5);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return x.get(0) != x.get(10);
  });
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 6, .levels = 2, .total_dts = 36});
  EXPECT_EQ(module.lut_count(), 43u);  // 36 + 6 + 1, the paper's hand count
}

TEST(Rinc, EvalDatasetMatchesPerExampleEval) {
  const BitMatrix features = random_bits(200, 24, 6);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return (x.get(0) && x.get(5)) || x.get(9);
  });
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 3, .levels = 2, .total_dts = 9});
  const BitVector batch = module.eval_dataset_batched(features);
  EXPECT_EQ(batch, reference::eval_dataset(module, features));
  for (std::size_t i = 0; i < features.rows(); ++i) {
    EXPECT_EQ(batch.get(i), reference::eval_module(module, features.row(i)))
        << "row " << i;
  }
}

TEST(Rinc, HigherLevelsImproveHardFunctions) {
  // A function of 12 features cannot fit a P=4 LUT; RINC-1 sees 16 inputs,
  // RINC-2 sees 64 — training error must improve monotonically (weakly).
  const BitMatrix features = random_bits(1500, 24, 7);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return testing::popcount_prefix(x, 12) >= 6;
  });

  double errors[3];
  for (std::size_t level = 0; level <= 2; ++level) {
    const RincModule module = RincModule::train(
        features, targets, {},
        {.lut_inputs = 4, .levels = level, .total_dts = 0 /* full */});
    const BitVector predictions = module.eval_dataset_batched(features);
    errors[level] = 1.0 - bit_accuracy(predictions, targets);
  }
  EXPECT_LT(errors[1], errors[0]);
  EXPECT_LE(errors[2], errors[1] + 0.02);
  EXPECT_LT(errors[2], 0.1);
}

TEST(Rinc, DistinctFeaturesBoundedByCapacity) {
  const BitMatrix features = random_bits(400, 100, 8);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return testing::popcount(x) % 3 == 0;
  });
  const RincConfig config{.lut_inputs = 3, .levels = 2, .total_dts = 9};
  const RincModule module = RincModule::train(features, targets, {}, config);
  // At most P per DT x P^L DTs = P^(L+1) distinct features.
  EXPECT_LE(module.distinct_features().size(), 27u);
  EXPECT_EQ(module.leaf_luts().size(), 9u);
}

TEST(Rinc, MoreDtsNeverHurtTrainAccuracyMuch) {
  const BitMatrix features = random_bits(800, 32, 9);
  const BitVector targets = targets_from(
      features,
      [](const BitVector& x) { return testing::popcount_prefix(x, 10) >= 5; },
      0.05, 10);
  double previous_error = 1.0;
  for (const std::size_t dts : {2u, 4u, 8u, 16u}) {
    const RincModule module = RincModule::train(
        features, targets, {},
        {.lut_inputs = 4, .levels = 2, .total_dts = dts});
    const double error =
        1.0 - bit_accuracy(reference::eval_dataset(module, features), targets);
    EXPECT_LE(error, previous_error + 0.05) << dts << " DTs";
    previous_error = error;
  }
}

TEST(Rinc, WeightedTrainingFollowsTheWeights) {
  const std::size_t n = 600;
  BitMatrix features(n, 4);
  BitVector targets(n);
  Rng rng(11);
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
  std::vector<double> second_half_only(n, 1e-9);
  for (std::size_t i = n / 2; i < n; ++i) second_half_only[i] = 1.0;
  const RincModule module =
      RincModule::train(features, targets, second_half_only,
                        {.lut_inputs = 2, .levels = 1, .total_dts = 2});
  // Must classify the upweighted half correctly.
  const BitVector predictions = module.eval_dataset_batched(features);
  std::size_t correct = 0;
  for (std::size_t i = n / 2; i < n; ++i) {
    if (predictions.get(i) == targets.get(i)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / (n / 2), 0.95);
}

TEST(Rinc, BudgetExceedingCapacityDies) {
  const BitMatrix features = random_bits(50, 10, 12);
  const BitVector targets(50);
  EXPECT_DEATH(RincModule::train(features, targets, {},
                                 {.lut_inputs = 2, .levels = 1, .total_dts = 5}),
               "");
}

TEST(Rinc, DeterministicAcrossRuns) {
  const BitMatrix features = random_bits(300, 20, 13);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return x.get(2) || (x.get(7) && x.get(13));
  });
  const RincConfig config{.lut_inputs = 4, .levels = 2, .total_dts = 8};
  const RincModule a = RincModule::train(features, targets, {}, config);
  const RincModule b = RincModule::train(features, targets, {}, config);
  EXPECT_EQ(a.eval_dataset_batched(features), b.eval_dataset_batched(features));
  EXPECT_EQ(a.lut_count(), b.lut_count());
}

// Parameterized structural sweep over (P, L).
struct RincShape {
  std::size_t p;
  std::size_t levels;
};

class RincStructureTest : public ::testing::TestWithParam<RincShape> {};

TEST_P(RincStructureTest, FullTreeMatchesFormula) {
  const auto [p, levels] = GetParam();
  const BitMatrix features = random_bits(200, 64, p * 10 + levels);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return testing::popcount(x) % 2 == 1;
  });
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = p, .levels = levels, .total_dts = 0});
  EXPECT_EQ(module.lut_count(), full_rinc_lut_count(p, levels));
  EXPECT_EQ(module.depth_in_luts(), levels + 1);
  EXPECT_EQ(module.level(), levels);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RincStructureTest,
                         ::testing::Values(RincShape{2, 1}, RincShape{2, 2},
                                           RincShape{3, 1}, RincShape{3, 2},
                                           RincShape{4, 1}, RincShape{2, 3}),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param.p) + "_L" +
                                  std::to_string(info.param.levels);
                         });

}  // namespace
}  // namespace poetbin
