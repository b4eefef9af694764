#include "data/dataset.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "test_util.h"
#include "util/rng.h"

namespace poetbin {
namespace {

TEST(Dataset, SplitSizesAndContent) {
  const ImageDataset data = make_digits(100, 4);
  const auto [first, second] = split_dataset(data, 30);
  EXPECT_EQ(first.size(), 30u);
  EXPECT_EQ(second.size(), 70u);
  EXPECT_EQ(first.image_size(), data.image_size());
  // The split preserves order.
  EXPECT_EQ(first.labels[0], data.labels[0]);
  EXPECT_EQ(second.labels[0], data.labels[30]);
  for (std::size_t k = 0; k < data.image_size(); ++k) {
    EXPECT_EQ(second.image(0)[k], data.image(30)[k]);
  }
}

TEST(Dataset, ShuffleKeepsImageLabelPairsTogether) {
  ImageDataset data = make_digits(200, 8);
  // Tag each image's first pixel with its label so pairing is checkable.
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.image(i)[0] = static_cast<float>(data.labels[i]) / 100.0f;
  }
  Rng rng(3);
  shuffle_dataset(data, rng);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_FLOAT_EQ(data.image(i)[0],
                    static_cast<float>(data.labels[i]) / 100.0f);
  }
}

TEST(Dataset, ShufflePermutes) {
  ImageDataset data = make_digits(300, 9);
  const auto before = data.labels;
  Rng rng(4);
  shuffle_dataset(data, rng);
  EXPECT_NE(data.labels, before);
  // Same multiset.
  auto sorted_before = before;
  auto sorted_after = data.labels;
  std::sort(sorted_before.begin(), sorted_before.end());
  std::sort(sorted_after.begin(), sorted_after.end());
  EXPECT_EQ(sorted_before, sorted_after);
}

TEST(Dataset, ClassHistogram) {
  const std::vector<int> labels = {0, 1, 1, 2, 2, 2};
  const auto histogram = testing::class_histogram(labels, 4);
  EXPECT_EQ(histogram, (std::vector<std::size_t>{1, 2, 3, 0}));
}

TEST(BinaryDataset, SelectSubsets) {
  BinaryDataset data;
  data.features = BitMatrix(4, 2);
  data.features.set(2, 1, true);
  data.labels = {0, 1, 2, 3};
  data.n_classes = 4;
  const BinaryDataset sub = data.select({2, 0});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.labels, (std::vector<int>{2, 0}));
  EXPECT_TRUE(sub.features.get(0, 1));
  EXPECT_FALSE(sub.features.get(1, 1));
}

}  // namespace
}  // namespace poetbin
