#include "hw/power_model.h"

#include <cmath>

#include "hw/lut_decompose.h"
#include "util/check.h"

namespace poetbin {

// ---------------------------------------------------------------- Table 4

FpgaOpPower op_power_mult16() { return {0.001, 0.001, 0.000, 0.020, 0.036}; }
FpgaOpPower op_power_add16() { return {0.001, 0.000, 0.001, 0.024, 0.036}; }
FpgaOpPower op_power_mult32() { return {0.002, 0.001, 0.001, 0.035, 0.037}; }
FpgaOpPower op_power_add32() { return {0.001, 0.000, 0.002, 0.048, 0.037}; }
FpgaOpPower op_power_mult_float() { return {0.005, 0.006, 0.005, 0.046, 0.037}; }
FpgaOpPower op_power_add_float() { return {0.004, 0.003, 0.005, 0.034, 0.037}; }

// ---------------------------------------------------------------- Table 5

ClassifierArch arch_m1() { return {"MNIST", {512, 512, 10}}; }
ClassifierArch arch_c1() { return {"CIFAR-10", {512, 4096, 4096, 10}}; }
ClassifierArch arch_s1() { return {"SVHN", {512, 2048, 2048, 10}}; }

OpCounts count_classifier_ops(const ClassifierArch& arch) {
  POETBIN_CHECK(arch.dims.size() >= 2);
  OpCounts counts;
  for (std::size_t l = 0; l + 1 < arch.dims.size(); ++l) {
    counts.mults += arch.dims[l] * arch.dims[l + 1];
    counts.adds += arch.dims[l] * arch.dims[l + 1];
  }
  return counts;
}

// ---------------------------------------------------------------- Table 6

double binary_neuron_power_watts(std::size_t fan_in) {
  // 26 mW measured for a 512-input binary neuron; XNOR array and adder tree
  // both scale linearly with fan-in.
  constexpr double kPowerAt512 = 0.026;
  return kPowerAt512 * static_cast<double>(fan_in) / 512.0;
}

double classifier_energy_joules(const ClassifierArch& arch, Precision precision,
                                double clock_period_s) {
  if (precision == Precision::kBinary1) {
    // Per-neuron bottom-up estimate, exactly the paper's §4.2 method.
    double power = 0.0;
    for (std::size_t l = 0; l + 1 < arch.dims.size(); ++l) {
      power += static_cast<double>(arch.dims[l + 1]) *
               binary_neuron_power_watts(arch.dims[l]);
    }
    return power * clock_period_s;
  }

  const OpCounts counts = count_classifier_ops(arch);
  FpgaOpPower mult;
  FpgaOpPower add;
  switch (precision) {
    case Precision::kFloat32:
      mult = op_power_mult_float();
      add = op_power_add_float();
      break;
    case Precision::kInt32:
      mult = op_power_mult32();
      add = op_power_add32();
      break;
    case Precision::kInt16:
      mult = op_power_mult16();
      add = op_power_add16();
      break;
    case Precision::kBinary1:
      POETBIN_CHECK(false);
  }
  const double power = static_cast<double>(counts.mults) * mult.compute() +
                       static_cast<double>(counts.adds) * add.compute();
  return power * clock_period_s;
}

// ------------------------------------------------------------- Tables 3/7

PoetBinHwSpec hw_spec_mnist() {
  // 80 modules x 32 DTs, P=8, RINC-2, 62.5 MHz; synthesis removed ~2.1% of
  // the decomposed LUTs (12160 raw -> 11899 reported).
  return {"MNIST", 8, 2, 32, 80, 10, 8, 62.5, 0.0215};
}

PoetBinHwSpec hw_spec_cifar10() {
  // 80 modules x 40 DTs, P=8, RINC-2, 62.5 MHz; ~36% removed (15040 -> 9650).
  return {"CIFAR-10", 8, 2, 40, 80, 10, 8, 62.5, 0.3584};
}

PoetBinHwSpec hw_spec_svhn() {
  // 60 modules x 36 DTs, P=6, RINC-2, 100 MHz; nothing removable (P=6 maps
  // 1:1 onto the hardware LUTs) -> the exact 2660 the paper hand-verifies.
  return {"SVHN", 6, 2, 36, 60, 10, 8, 100.0, 0.0};
}

std::size_t rinc_module_lut_units(const PoetBinHwSpec& spec) {
  std::size_t units = 0;
  std::size_t group = 1;  // P^l
  for (std::size_t l = 0; l <= spec.levels; ++l) {
    units += (spec.n_dts + group - 1) / group;  // ceil(n_dts / P^l)
    group *= spec.lut_inputs;
  }
  return units;
}

std::size_t poetbin_total_6luts(const PoetBinHwSpec& spec) {
  const std::size_t per_module =
      rinc_module_lut_units(spec) * six_lut_cost(spec.lut_inputs);
  const std::size_t output_luts = spec.n_classes *
                                  static_cast<std::size_t>(spec.qbits) *
                                  six_lut_cost(spec.lut_inputs);
  const double raw =
      static_cast<double>(per_module * spec.n_modules + output_luts);
  return static_cast<std::size_t>(std::llround(raw * (1.0 - spec.prune_fraction)));
}

std::size_t poetbin_critical_path_levels(const PoetBinHwSpec& spec) {
  // L+1 LUT stages through the RINC tree plus the output code LUT, each
  // costing 1 level at P<=6 and 2 levels after 8->6 decomposition.
  return (spec.levels + 2) * six_lut_levels(spec.lut_inputs);
}

double poetbin_latency_ns(const PoetBinHwSpec& spec) {
  // Affine fit to the paper's measurements: MNIST (8 levels, 9.11 ns) and
  // SVHN (4 levels, 5.85 ns); predicts CIFAR-10 at 9.11 ns vs 9.48 measured.
  constexpr double kRoutingOverheadNs = 2.59;
  constexpr double kPerLevelNs = 0.815;
  return kRoutingOverheadNs +
         kPerLevelNs * static_cast<double>(poetbin_critical_path_levels(spec));
}

double poetbin_dynamic_power_watts(const PoetBinHwSpec& spec) {
  // Per-LUT switching energy calibrated on the paper's MNIST measurement:
  // 0.468 W x 16 ns / 11899 LUTs = 629 fJ per LUT per cycle.
  constexpr double kLutEnergyPerCycle = 629e-15;
  const double period_s = 1e-6 / spec.clock_mhz;
  return static_cast<double>(poetbin_total_6luts(spec)) * kLutEnergyPerCycle /
         period_s;
}

double poetbin_static_power_watts() { return 0.043; }

double poetbin_total_power_watts(const PoetBinHwSpec& spec) {
  return poetbin_dynamic_power_watts(spec) + poetbin_static_power_watts();
}

double poetbin_energy_joules(const PoetBinHwSpec& spec) {
  const double period_s = 1e-6 / spec.clock_mhz;
  return poetbin_total_power_watts(spec) * period_s;
}

}  // namespace poetbin
