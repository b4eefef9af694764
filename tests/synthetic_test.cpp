#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.h"

namespace poetbin {
namespace {

class SyntheticFamilyTest : public ::testing::TestWithParam<SyntheticFamily> {};

TEST_P(SyntheticFamilyTest, ShapesAndLabels) {
  const ImageDataset data = make_synthetic({GetParam(), 500, 42, 0.15});
  EXPECT_EQ(data.size(), 500u);
  EXPECT_EQ(data.n_classes, 10u);
  EXPECT_EQ(data.height, 16u);
  EXPECT_EQ(data.width, 16u);
  EXPECT_EQ(data.pixels.size(), data.size() * data.image_size());
  for (const int label : data.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 10);
  }
}

TEST_P(SyntheticFamilyTest, PixelsInUnitRange) {
  const ImageDataset data = make_synthetic({GetParam(), 100, 7, 0.2});
  for (const float pixel : data.pixels) {
    ASSERT_GE(pixel, 0.0f);
    ASSERT_LE(pixel, 1.0f);
  }
}

TEST_P(SyntheticFamilyTest, DeterministicInSeed) {
  const ImageDataset a = make_synthetic({GetParam(), 50, 99, 0.15});
  const ImageDataset b = make_synthetic({GetParam(), 50, 99, 0.15});
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.pixels, b.pixels);
}

TEST_P(SyntheticFamilyTest, DifferentSeedsDiffer) {
  const ImageDataset a = make_synthetic({GetParam(), 50, 1, 0.15});
  const ImageDataset b = make_synthetic({GetParam(), 50, 2, 0.15});
  EXPECT_NE(a.pixels, b.pixels);
}

TEST_P(SyntheticFamilyTest, ClassesRoughlyBalanced) {
  const ImageDataset data = make_synthetic({GetParam(), 2000, 3, 0.15});
  const auto histogram = testing::class_histogram(data.labels, 10);
  for (const auto count : histogram) {
    EXPECT_GT(count, 120u);  // expectation 200, loose 3-sigma-ish bound
    EXPECT_LT(count, 300u);
  }
}

TEST_P(SyntheticFamilyTest, SameClassInstancesVary) {
  const ImageDataset data = make_synthetic({GetParam(), 200, 5, 0.15});
  // Find two examples of the same class and check they are not identical
  // (jitter/noise must be active).
  for (int target = 0; target < 10; ++target) {
    std::size_t first = data.size();
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (data.labels[i] != target) continue;
      if (first == data.size()) {
        first = i;
        continue;
      }
      const float* a = data.image(first);
      const float* b = data.image(i);
      bool different = false;
      for (std::size_t k = 0; k < data.image_size(); ++k) {
        if (a[k] != b[k]) {
          different = true;
          break;
        }
      }
      EXPECT_TRUE(different) << "class " << target;
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, SyntheticFamilyTest,
                         ::testing::Values(SyntheticFamily::kDigits,
                                           SyntheticFamily::kHouseNumbers,
                                           SyntheticFamily::kTextures),
                         [](const auto& info) {
                           return family_name(info.param);
                         });

TEST(Synthetic, ChannelCounts) {
  EXPECT_EQ(make_digits(1, 1).channels, 1u);
  EXPECT_EQ(make_house_numbers(1, 1).channels, 3u);
  EXPECT_EQ(make_textures(1, 1).channels, 3u);
}

TEST(Synthetic, FamilyNames) {
  EXPECT_STREQ(family_name(SyntheticFamily::kDigits), "digits");
  EXPECT_STREQ(family_paper_dataset(SyntheticFamily::kDigits), "MNIST");
  EXPECT_STREQ(family_paper_dataset(SyntheticFamily::kHouseNumbers), "SVHN");
  EXPECT_STREQ(family_paper_dataset(SyntheticFamily::kTextures), "CIFAR-10");
}

TEST(Synthetic, DigitClassesAreVisuallyDistinct) {
  // Mean image per class should differ between classes: the per-class mean
  // pixel correlation across different digits must be below that of the
  // same digit re-rendered.
  const ImageDataset data = make_digits(3000, 21, 0.05);
  const std::size_t image_size = data.image_size();
  std::vector<std::vector<double>> means(10, std::vector<double>(image_size, 0.0));
  std::vector<std::size_t> counts(10, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto label = static_cast<std::size_t>(data.labels[i]);
    ++counts[label];
    const float* image = data.image(i);
    for (std::size_t k = 0; k < image_size; ++k) means[label][k] += image[k];
  }
  for (std::size_t c = 0; c < 10; ++c) {
    for (auto& v : means[c]) v /= static_cast<double>(counts[c]);
  }
  // L2 distance between every pair of class means must be clearly positive.
  for (std::size_t a = 0; a < 10; ++a) {
    for (std::size_t b = a + 1; b < 10; ++b) {
      double distance = 0.0;
      for (std::size_t k = 0; k < image_size; ++k) {
        const double d = means[a][k] - means[b][k];
        distance += d * d;
      }
      EXPECT_GT(std::sqrt(distance), 0.5) << "classes " << a << " vs " << b;
    }
  }
}

}  // namespace
}  // namespace poetbin
