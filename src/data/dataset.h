// Dataset containers.
//
// `ImageDataset` holds dense float images (the input to the vanilla / teacher
// networks); `BinaryDataset` holds packed binary feature vectors (the input
// to RINC modules and all baselines' classifier portions).
#pragma once

#include <cstddef>
#include <vector>

#include "util/bit_matrix.h"
#include "util/check.h"
#include "util/rng.h"

namespace poetbin {

struct ImageDataset {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t n_classes = 0;
  // Row-major: images[i * image_size() + k].
  std::vector<float> pixels;
  std::vector<int> labels;

  std::size_t image_size() const { return channels * height * width; }
  std::size_t size() const { return labels.size(); }

  const float* image(std::size_t i) const {
    POETBIN_CHECK(i < size());
    return pixels.data() + i * image_size();
  }
  float* image(std::size_t i) {
    POETBIN_CHECK(i < size());
    return pixels.data() + i * image_size();
  }
};

struct BinaryDataset {
  BitMatrix features;  // n_examples x n_features, feature-major packed
  std::vector<int> labels;
  std::size_t n_classes = 0;

  std::size_t size() const { return labels.size(); }
  std::size_t n_features() const { return features.cols(); }

  // Subset with rows reordered/selected; labels follow.
  BinaryDataset select(const std::vector<std::size_t>& rows) const;
};

// In-place Fisher-Yates shuffle of examples (pixels and labels together).
void shuffle_dataset(ImageDataset& dataset, Rng& rng);

// Split off the first `n_first` examples (after any shuffling done by the
// caller) into the first returned dataset; the rest go into the second.
std::pair<ImageDataset, ImageDataset> split_dataset(const ImageDataset& dataset,
                                                    std::size_t n_first);

}  // namespace poetbin
