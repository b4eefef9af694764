// Parallel distillation must be bit-identical to serial distillation: the
// per-neuron problems are independent and each module's training is
// deterministic, so the thread count is not allowed to leak into results.
#include <gtest/gtest.h>

#include "core/poetbin.h"
#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

TEST(PoetBinThreads, ParallelEqualsSerial) {
  const BinaryDataset data = testing::prototype_dataset(500, 48, 13);
  const std::size_t p = 4;
  BitMatrix intermediate(data.size(), data.n_classes * p);
  Rng rng(14);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      const bool is_class = data.labels[i] == static_cast<int>(j / p);
      intermediate.set(i, j, is_class != rng.next_bool(0.05));
    }
  }

  PoetBinConfig serial_config;
  serial_config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 4};
  serial_config.n_classes = data.n_classes;
  serial_config.output.epochs = 50;
  serial_config.threads = 1;

  PoetBinConfig parallel_config = serial_config;
  parallel_config.threads = 4;

  const PoetBin serial =
      PoetBin::train(data.features, intermediate, data.labels, serial_config);
  const PoetBin parallel = PoetBin::train(data.features, intermediate,
                                          data.labels, parallel_config);

  EXPECT_EQ(reference::rinc_outputs(serial, data.features),
            reference::rinc_outputs(parallel, data.features));
  EXPECT_EQ(reference::predict_dataset(serial, data.features),
            reference::predict_dataset(parallel, data.features));
  EXPECT_EQ(serial.lut_count(), parallel.lut_count());
  for (std::size_t c = 0; c < serial.n_classes(); ++c) {
    EXPECT_EQ(serial.output_neurons()[c].codes,
              parallel.output_neurons()[c].codes);
  }
}

TEST(PoetBinThreads, MoreThreadsThanModulesIsFine) {
  const BinaryDataset data = testing::prototype_dataset(150, 24, 15);
  const std::size_t p = 2;
  BitMatrix intermediate(data.size(), data.n_classes * p);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      intermediate.set(i, j, data.labels[i] == static_cast<int>(j / p));
    }
  }
  PoetBinConfig config;
  config.rinc = {.lut_inputs = p, .levels = 0, .total_dts = 1};
  config.n_classes = data.n_classes;
  config.output.epochs = 10;
  config.threads = 64;  // far more than 20 modules
  const PoetBin model =
      PoetBin::train(data.features, intermediate, data.labels, config);
  EXPECT_EQ(model.n_modules(), 20u);
}

}  // namespace
}  // namespace poetbin
