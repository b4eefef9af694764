#include "data/dataset.h"

#include <numeric>
#include <utility>

namespace poetbin {

BinaryDataset BinaryDataset::select(const std::vector<std::size_t>& rows) const {
  BinaryDataset out;
  out.features = features.select_rows(rows);
  out.labels.reserve(rows.size());
  for (const auto r : rows) {
    POETBIN_CHECK(r < labels.size());
    out.labels.push_back(labels[r]);
  }
  out.n_classes = n_classes;
  return out;
}

void shuffle_dataset(ImageDataset& dataset, Rng& rng) {
  const std::size_t n = dataset.size();
  if (n < 2) return;
  const std::size_t image_size = dataset.image_size();
  std::vector<float> tmp(image_size);
  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t j = rng.next_index(i + 1);
    if (i == j) continue;
    float* a = dataset.image(i);
    float* b = dataset.image(j);
    std::copy(a, a + image_size, tmp.begin());
    std::copy(b, b + image_size, a);
    std::copy(tmp.begin(), tmp.end(), b);
    std::swap(dataset.labels[i], dataset.labels[j]);
  }
}

std::pair<ImageDataset, ImageDataset> split_dataset(const ImageDataset& dataset,
                                                    std::size_t n_first) {
  POETBIN_CHECK(n_first <= dataset.size());
  const std::size_t image_size = dataset.image_size();

  auto make_part = [&](std::size_t begin, std::size_t end) {
    ImageDataset part;
    part.channels = dataset.channels;
    part.height = dataset.height;
    part.width = dataset.width;
    part.n_classes = dataset.n_classes;
    part.pixels.assign(dataset.pixels.begin() + begin * image_size,
                       dataset.pixels.begin() + end * image_size);
    part.labels.assign(dataset.labels.begin() + begin, dataset.labels.begin() + end);
    return part;
  };

  return {make_part(0, n_first), make_part(n_first, dataset.size())};
}

}  // namespace poetbin
