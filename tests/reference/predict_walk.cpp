#include "reference/scalar_reference.h"

namespace poetbin::reference {

std::size_t lut_address(const Lut& lut, const BitVector& example_bits) {
  std::size_t address = 0;
  for (std::size_t j = 0; j < lut.arity(); ++j) {
    if (example_bits.get(lut.inputs()[j])) address |= std::size_t{1} << j;
  }
  return address;
}

bool eval_module(const RincModule& module, const BitVector& example_bits) {
  if (module.is_leaf()) {
    const Lut& lut = module.leaf_lut();
    return lut.lookup(lut_address(lut, example_bits));
  }
  std::size_t combo = 0;
  for (std::size_t i = 0; i < module.children().size(); ++i) {
    if (eval_module(module.children()[i], example_bits)) {
      combo |= std::size_t{1} << i;
    }
  }
  return module.mat_lut().lookup(combo);
}

int predict_walk(const PoetBin& model, const BitVector& example_bits) {
  std::size_t best_class = 0;
  std::uint32_t best_code = 0;
  for (std::size_t c = 0; c < model.n_classes(); ++c) {
    const SparseOutputNeuron& neuron = model.output_neurons()[c];
    std::size_t combo = 0;
    for (std::size_t j = 0; j < neuron.input_modules.size(); ++j) {
      if (eval_module(model.modules()[neuron.input_modules[j]],
                      example_bits)) {
        combo |= std::size_t{1} << j;
      }
    }
    const std::uint32_t code = neuron.codes[combo];
    if (c == 0 || code > best_code) {
      best_code = code;
      best_class = c;
    }
  }
  return static_cast<int>(best_class);
}

}  // namespace poetbin::reference
