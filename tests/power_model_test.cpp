#include "hw/power_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace poetbin {
namespace {

// Total neurons in the classifier's hidden+output layers (binary-network
// power is estimated per neuron in the paper).
std::size_t count_classifier_neurons(const ClassifierArch& arch) {
  std::size_t neurons = 0;
  for (std::size_t l = 1; l < arch.dims.size(); ++l) neurons += arch.dims[l];
  return neurons;
}

const char* precision_name(Precision precision) {
  switch (precision) {
    case Precision::kFloat32: return "float32";
    case Precision::kInt32: return "int32";
    case Precision::kInt16: return "int16";
    case Precision::kBinary1: return "binary";
  }
  return "?";
}

// ---------------------------------------------------------------- Table 4

TEST(Table4, TotalsMatchPaper) {
  EXPECT_NEAR(op_power_mult16().total(), 0.058, 1e-9);
  EXPECT_NEAR(op_power_add16().total(), 0.062, 1e-9);
  EXPECT_NEAR(op_power_mult32().total(), 0.076, 1e-9);
  EXPECT_NEAR(op_power_add32().total(), 0.088, 1e-9);
  // The paper's float-mult row prints total 0.098 but its own columns sum
  // to 0.099 (a rounding slip in the paper); we keep the column values.
  EXPECT_NEAR(op_power_mult_float().total(), 0.099, 1e-9);
  EXPECT_NEAR(op_power_add_float().total(), 0.083, 1e-9);
}

TEST(Table4, ComputePowerIsLogicPlusSignal) {
  EXPECT_NEAR(op_power_mult_float().compute(), 0.011, 1e-9);
  EXPECT_NEAR(op_power_add_float().compute(), 0.008, 1e-9);
  EXPECT_NEAR(op_power_mult16().compute(), 0.001, 1e-9);
}

// ---------------------------------------------------------------- Table 5

TEST(Table5, OpCountsMatchPaperExactly) {
  EXPECT_EQ(count_classifier_ops(arch_m1()).mults, 267264u);
  EXPECT_EQ(count_classifier_ops(arch_m1()).adds, 267264u);
  EXPECT_EQ(count_classifier_ops(arch_c1()).mults, 18915328u);
  EXPECT_EQ(count_classifier_ops(arch_s1()).mults, 5263360u);
}

TEST(Table5, NeuronCounts) {
  EXPECT_EQ(count_classifier_neurons(arch_m1()), 522u);  // paper SS4.2
  EXPECT_EQ(count_classifier_neurons(arch_c1()), 8202u);
  EXPECT_EQ(count_classifier_neurons(arch_s1()), 4106u);
}

// ---------------------------------------------------------------- Table 6

TEST(Table6, VanillaEnergiesMatchPaperOrder) {
  // Paper: MNIST 8.0e-5, CIFAR-10 5.7e-3, SVHN 1.6e-3 (float, 16 ns clock).
  const double mnist = classifier_energy_joules(arch_m1(), Precision::kFloat32);
  const double cifar = classifier_energy_joules(arch_c1(), Precision::kFloat32);
  const double svhn = classifier_energy_joules(arch_s1(), Precision::kFloat32);
  EXPECT_NEAR(mnist, 8.0e-5, 0.15 * 8.0e-5);
  EXPECT_NEAR(cifar, 5.7e-3, 0.15 * 5.7e-3);
  EXPECT_NEAR(svhn, 1.6e-3, 0.15 * 1.6e-3);
}

TEST(Table6, QuantizedEnergiesMatchPaper) {
  EXPECT_NEAR(classifier_energy_joules(arch_m1(), Precision::kInt16), 8.5e-6,
              0.1 * 8.5e-6);
  EXPECT_NEAR(classifier_energy_joules(arch_m1(), Precision::kInt32), 1.7e-5,
              0.1 * 1.7e-5);
  EXPECT_NEAR(classifier_energy_joules(arch_c1(), Precision::kInt16), 6.0e-4,
              0.1 * 6.0e-4);
  EXPECT_NEAR(classifier_energy_joules(arch_s1(), Precision::kInt32), 3.6e-4,
              0.12 * 3.6e-4);
}

TEST(Table6, BinaryNeuronModelReproducesMnistExactly) {
  // Paper: 26 mW x 522 neurons = 13.572 W; x 16 ns = 2.17e-7 J.
  EXPECT_NEAR(binary_neuron_power_watts(512), 0.026, 1e-12);
  const double energy = classifier_energy_joules(arch_m1(), Precision::kBinary1);
  EXPECT_NEAR(energy, 2.17e-7, 0.02 * 2.17e-7);
}

TEST(Table6, BinaryEnergiesWithinOrderOfMagnitude) {
  // Paper: CIFAR-10 3.9e-5, SVHN 9.2e-6; the linear fan-in model lands in
  // the same decade (a documented substitution; bench_table6_energy prints
  // the modelled energies).
  const double cifar = classifier_energy_joules(arch_c1(), Precision::kBinary1);
  const double svhn = classifier_energy_joules(arch_s1(), Precision::kBinary1);
  EXPECT_GT(cifar, 3.9e-6);
  EXPECT_LT(cifar, 3.9e-4);
  EXPECT_GT(svhn, 9.2e-7);
  EXPECT_LT(svhn, 9.2e-5);
}

TEST(Table6, PrecisionOrderingHolds) {
  // float > int32 > int16 > binary for every architecture.
  for (const auto& arch : {arch_m1(), arch_c1(), arch_s1()}) {
    const double f = classifier_energy_joules(arch, Precision::kFloat32);
    const double i32 = classifier_energy_joules(arch, Precision::kInt32);
    const double i16 = classifier_energy_joules(arch, Precision::kInt16);
    const double b = classifier_energy_joules(arch, Precision::kBinary1);
    EXPECT_GT(f, i32) << arch.name;
    EXPECT_GT(i32, i16) << arch.name;
    EXPECT_GT(i16, b) << arch.name;
  }
}

// ------------------------------------------------------------- Tables 3/7

TEST(Table7, ModuleLutUnitsMatchPaperHandCounts) {
  EXPECT_EQ(rinc_module_lut_units(hw_spec_mnist()), 37u);    // 32+4+1
  EXPECT_EQ(rinc_module_lut_units(hw_spec_cifar10()), 46u);  // 40+5+1
  EXPECT_EQ(rinc_module_lut_units(hw_spec_svhn()), 43u);     // 36+6+1
}

TEST(Table7, SvhnLutCountExact2660) {
  // The paper hand-verifies 43*60 + 80 = 2660 and reports the synthesizer
  // agrees exactly.
  EXPECT_EQ(poetbin_total_6luts(hw_spec_svhn()), 2660u);
}

TEST(Table7, MnistAndCifarLutCountsNearPaper) {
  // Paper: 11899 (MNIST), 9650 (CIFAR-10) post-synthesis.
  const auto mnist = static_cast<double>(poetbin_total_6luts(hw_spec_mnist()));
  const auto cifar = static_cast<double>(poetbin_total_6luts(hw_spec_cifar10()));
  EXPECT_NEAR(mnist, 11899.0, 0.02 * 11899.0);
  EXPECT_NEAR(cifar, 9650.0, 0.02 * 9650.0);
}

TEST(Table7, CriticalPathLevels) {
  EXPECT_EQ(poetbin_critical_path_levels(hw_spec_svhn()), 4u);   // P=6
  EXPECT_EQ(poetbin_critical_path_levels(hw_spec_mnist()), 8u);  // P=8 -> x2
}

TEST(Table7, LatencyMatchesPaper) {
  // Paper: 9.11 ns MNIST, 9.48 ns CIFAR-10, 5.85 ns SVHN.
  EXPECT_NEAR(poetbin_latency_ns(hw_spec_mnist()), 9.11, 0.05);
  EXPECT_NEAR(poetbin_latency_ns(hw_spec_svhn()), 5.85, 0.05);
  EXPECT_NEAR(poetbin_latency_ns(hw_spec_cifar10()), 9.48, 0.5);
}

TEST(Table3, MnistPowerCalibrated) {
  // Dynamic power calibrated on this very point: must reproduce 0.468 W.
  EXPECT_NEAR(poetbin_dynamic_power_watts(hw_spec_mnist()), 0.468, 0.01);
  EXPECT_NEAR(poetbin_static_power_watts(), 0.043, 0.005);
  EXPECT_NEAR(poetbin_total_power_watts(hw_spec_mnist()), 0.513, 0.015);
}

TEST(Table3, OtherDatasetsWithinFactorTwoish) {
  // Paper: CIFAR-10 total 0.341 W, SVHN total 0.417 W. The single-parameter
  // activity model predicts within ~2.5x (bench_table3_power prints both).
  const double cifar = poetbin_total_power_watts(hw_spec_cifar10());
  const double svhn = poetbin_total_power_watts(hw_spec_svhn());
  EXPECT_GT(cifar, 0.341 / 2.5);
  EXPECT_LT(cifar, 0.341 * 2.5);
  EXPECT_GT(svhn, 0.417 / 2.5);
  EXPECT_LT(svhn, 0.417 * 2.5);
}

TEST(Table6, PoetBinEnergyOrdersOfMagnitude) {
  // Paper: 8.2e-9 (MNIST), 5.4e-9 (CIFAR-10), 4.1e-9 (SVHN).
  EXPECT_NEAR(poetbin_energy_joules(hw_spec_mnist()), 8.2e-9, 0.3e-9);
  const double cifar = poetbin_energy_joules(hw_spec_cifar10());
  const double svhn = poetbin_energy_joules(hw_spec_svhn());
  EXPECT_GT(cifar, 1e-9);
  EXPECT_LT(cifar, 2e-8);
  EXPECT_GT(svhn, 1e-9);
  EXPECT_LT(svhn, 2e-8);
}

TEST(Table6, HeadlineClaimSixOrdersVsFloat) {
  // "up to six orders of magnitude compared to a floating point
  // implementation" — CIFAR-10 is the largest ratio.
  const double ratio =
      classifier_energy_joules(arch_c1(), Precision::kFloat32) /
      poetbin_energy_joules(hw_spec_cifar10());
  EXPECT_GT(ratio, 1e5);
  EXPECT_LT(ratio, 1e7);
}

TEST(Table6, HeadlineClaimThreeOrdersVsBinary) {
  const double ratio =
      classifier_energy_joules(arch_c1(), Precision::kBinary1) /
      poetbin_energy_joules(hw_spec_cifar10());
  EXPECT_GT(ratio, 1e2);  // paper reports 7e3 with its binary estimate
  EXPECT_LT(ratio, 1e5);
}

TEST(PrecisionNames, Stable) {
  EXPECT_STREQ(precision_name(Precision::kFloat32), "float32");
  EXPECT_STREQ(precision_name(Precision::kBinary1), "binary");
}

}  // namespace
}  // namespace poetbin
