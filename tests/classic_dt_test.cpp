#include "dt/classic_dt.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace poetbin {
namespace {

using testing::bit_accuracy;
using testing::random_bits;
using testing::targets_from;

TEST(ClassicDt, LearnsSingleFeature) {
  const BitMatrix features = random_bits(200, 8, 1);
  const BitVector targets =
      targets_from(features, [](const BitVector& x) { return x.get(3); });
  const ClassicDt tree = ClassicDt::train(features, targets, {}, {});
  EXPECT_EQ(tree.weighted_error(features, targets, {}), 0.0);
  EXPECT_EQ(tree.depth(), 1u);
  EXPECT_EQ(tree.distinct_features(), 1u);
}

TEST(ClassicDt, LearnsNestedFunction) {
  const BitMatrix features = random_bits(800, 10, 2);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return x.get(0) ? x.get(1) : x.get(2);
  });
  const ClassicDt tree =
      ClassicDt::train(features, targets, {}, {.max_depth = 4});
  EXPECT_EQ(tree.weighted_error(features, targets, {}), 0.0);
  EXPECT_LE(tree.depth(), 4u);
}

TEST(ClassicDt, RespectsDepthLimit) {
  const BitMatrix features = random_bits(500, 16, 3);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return testing::popcount(x) % 2 == 0;  // parity: needs full depth
  });
  const ClassicDt tree =
      ClassicDt::train(features, targets, {}, {.max_depth = 3});
  EXPECT_LE(tree.depth(), 3u);
}

TEST(ClassicDt, EvalDatasetMatchesEval) {
  const BitMatrix features = random_bits(150, 12, 4);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return x.get(1) || (x.get(4) && x.get(8));
  });
  const ClassicDt tree =
      ClassicDt::train(features, targets, {}, {.max_depth = 5});
  const BitVector batch = tree.eval_dataset(features);
  for (std::size_t i = 0; i < features.rows(); ++i) {
    EXPECT_EQ(batch.get(i), tree.eval(features.row(i)));
  }
}

TEST(ClassicDt, PureNodeStopsEarly) {
  const BitMatrix features = random_bits(100, 5, 5);
  BitVector targets(100);  // all class 0
  const ClassicDt tree =
      ClassicDt::train(features, targets, {}, {.max_depth = 5});
  EXPECT_EQ(tree.node_count(), 1u);  // a single leaf
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.weighted_error(features, targets, {}), 0.0);
}

TEST(ClassicDt, UsesMoreDistinctFeaturesThanLevelDtDepth) {
  // The contrast the paper draws: a classic depth-d tree may consult up to
  // 2^d - 1 distinct features, a level-wise tree exactly d.
  const BitMatrix features = random_bits(1500, 24, 6);
  const BitVector targets = targets_from(features, [](const BitVector& x) {
    return x.get(0) ? (x.get(1) != x.get(2)) : (x.get(3) && x.get(4));
  });
  const ClassicDt tree =
      ClassicDt::train(features, targets, {}, {.max_depth = 3});
  EXPECT_GT(tree.distinct_features(), 3u);
}

TEST(ClassicDt, WeightsChangeTheTree) {
  const std::size_t n = 400;
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
  std::vector<double> up_first(n, 1.0);
  std::vector<double> up_second(n, 1e-6);
  for (std::size_t i = n / 2; i < n; ++i) {
    up_first[i] = 1e-6;
    up_second[i] = 1.0;
  }
  const ClassicDt tree_first =
      ClassicDt::train(features, targets, up_first, {.max_depth = 1});
  const ClassicDt tree_second =
      ClassicDt::train(features, targets, up_second, {.max_depth = 1});
  // Each tree should favour the feature matching the upweighted half; their
  // weighted errors on "their" weights must be near zero.
  EXPECT_LT(tree_first.weighted_error(features, targets, up_first), 0.05);
  EXPECT_LT(tree_second.weighted_error(features, targets, up_second), 0.05);
}

TEST(ClassicDt, NoGainSplitBecomesLeaf) {
  // Constant features: no split can help.
  BitMatrix features(50, 4);
  BitVector targets(50);
  for (std::size_t i = 0; i < 25; ++i) targets.set(i, true);
  const ClassicDt tree =
      ClassicDt::train(features, targets, {}, {.max_depth = 6});
  EXPECT_EQ(tree.node_count(), 1u);
}

}  // namespace
}  // namespace poetbin
