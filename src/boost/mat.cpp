#include "boost/mat.h"

#include <numeric>

#include "util/check.h"

namespace poetbin {

MatModule::MatModule(std::vector<double> weights) : weights_(std::move(weights)) {
  POETBIN_CHECK_MSG(!weights_.empty(), "MAT needs at least one input");
  POETBIN_CHECK_MSG(weights_.size() <= 20, "MAT arity beyond LUT range");
}

double MatModule::threshold() const {
  return std::accumulate(weights_.begin(), weights_.end(), 0.0) / 2.0;
}

double MatModule::margin(std::size_t combo) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    const double sign = (combo >> i) & 1 ? 1.0 : -1.0;
    sum += weights_[i] * sign;
  }
  return sum;
}

BitVector MatModule::to_table() const {
  const std::size_t n_combos = std::size_t{1} << weights_.size();
  BitVector table(n_combos);
  for (std::size_t combo = 0; combo < n_combos; ++combo) {
    if (eval_combo(combo)) table.set(combo, true);
  }
  return table;
}

}  // namespace poetbin
