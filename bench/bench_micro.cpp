// google-benchmark micro-benchmarks of the primitives every experiment sits
// on: packed LUT evaluation, level-wise DT training, MAT encoding, netlist
// simulation and XNOR-popcount.
#include <benchmark/benchmark.h>

#include "boost/mat.h"
#include "core/rinc.h"
#include "dt/level_dt.h"
#include "hw/netlist_builder.h"
#include "util/bit_matrix.h"
#include "util/rng.h"

namespace {

using namespace poetbin;

BitMatrix random_bits(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix bits(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.next_bool()) bits.set(r, c, true);
    }
  }
  return bits;
}

BitVector majority_targets(const BitMatrix& features) {
  BitVector targets(features.rows());
  for (std::size_t i = 0; i < features.rows(); ++i) {
    std::size_t votes = 0;
    for (std::size_t f = 0; f < 8; ++f) {
      if (features.get(i, f)) ++votes;
    }
    targets.set(i, votes >= 4);
  }
  return targets;
}

void BM_BitVectorXnorPopcount(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  BitVector a(n);
  BitVector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, rng.next_bool());
    b.set(i, rng.next_bool());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.xnor_popcount(b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BitVectorXnorPopcount)->Arg(512)->Arg(4096)->Arg(65536);

void BM_LutEvalDataset(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const BitMatrix features = random_bits(n, 512, 2);
  Rng rng(3);
  BitVector table(256);
  for (std::size_t i = 0; i < 256; ++i) table.set(i, rng.next_bool());
  const RincModule leaf = RincModule::make_leaf(
      Lut({3, 97, 200, 301, 402, 17, 450, 260}, table));
  for (auto _ : state) {
    benchmark::DoNotOptimize(leaf.eval_dataset_batched(features));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_LutEvalDataset)->Arg(1024)->Arg(8192);

void BM_LevelDtTrain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t n_features = static_cast<std::size_t>(state.range(1));
  const BitMatrix features = random_bits(n, n_features, 4);
  const BitVector targets = majority_targets(features);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        train_level_dt(features, targets, {}, {.n_inputs = 6}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n_features));
}
BENCHMARK(BM_LevelDtTrain)->Args({1000, 128})->Args({1000, 512})->Args({4000, 512});

void BM_RincTrain(benchmark::State& state) {
  const std::size_t dts = static_cast<std::size_t>(state.range(0));
  const BitMatrix features = random_bits(1000, 256, 5);
  const BitVector targets = majority_targets(features);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RincModule::train(
        features, targets, {},
        {.lut_inputs = 6, .levels = 2, .total_dts = dts}));
  }
}
BENCHMARK(BM_RincTrain)->Arg(6)->Arg(18)->Arg(36)->Unit(benchmark::kMillisecond);

void BM_MatToTable(benchmark::State& state) {
  const std::size_t arity = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<double> weights(arity);
  for (auto& w : weights) w = rng.uniform(-1.0, 1.0);
  const MatModule mat(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mat.to_table());
  }
}
BENCHMARK(BM_MatToTable)->Arg(6)->Arg(8)->Arg(12);

void BM_RincEval(benchmark::State& state) {
  const BitMatrix features = random_bits(2000, 256, 7);
  const BitVector targets = majority_targets(features);
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 6, .levels = 2, .total_dts = 18});
  for (auto _ : state) {
    benchmark::DoNotOptimize(module.eval_dataset_batched(features));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_RincEval);

void BM_NetlistSimulate(benchmark::State& state) {
  const BitMatrix features = random_bits(64, 256, 8);
  const BitVector targets = majority_targets(features);
  const RincModule module = RincModule::train(
      features, targets, {}, {.lut_inputs = 6, .levels = 2, .total_dts = 18});
  const Netlist netlist = build_rinc_netlist(module, 256);
  const BitVector row = features.row(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist.simulate(row));
  }
}
BENCHMARK(BM_NetlistSimulate);

}  // namespace
