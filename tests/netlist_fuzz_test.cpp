// Fuzz-style property tests: random netlists must survive optimization with
// observable behaviour unchanged, across many seeds (TEST_P sweep).
#include <gtest/gtest.h>

#include "hw/netlist_opt.h"
#include "reference/scalar_reference.h"
#include "util/rng.h"

namespace poetbin {
namespace {

using reference::verify_equivalent;

// Random DAG of LUTs over `n_inputs` primary inputs. Tables are random, so
// the full zoo appears: constants, identities, inverters, redundant inputs.
Netlist random_netlist(std::size_t n_inputs, std::size_t n_luts,
                       std::uint64_t seed, std::size_t n_outputs) {
  Rng rng(seed);
  Netlist netlist;
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    nodes.push_back(netlist.add_input(i, "x" + std::to_string(i)));
  }
  for (std::size_t l = 0; l < n_luts; ++l) {
    const std::size_t arity = 1 + rng.next_index(4);
    std::vector<std::size_t> fanins;
    for (std::size_t j = 0; j < arity; ++j) {
      fanins.push_back(nodes[rng.next_index(nodes.size())]);
    }
    BitVector table(std::size_t{1} << arity);
    for (std::size_t a = 0; a < table.size(); ++a) {
      table.set(a, rng.next_bool());
    }
    nodes.push_back(
        netlist.add_lut(std::move(fanins), std::move(table),
                        "g" + std::to_string(l)));
  }
  for (std::size_t o = 0; o < n_outputs; ++o) {
    netlist.mark_output(nodes[rng.next_index(nodes.size())]);
  }
  return netlist;
}

BitMatrix exhaustive_vectors(std::size_t n_inputs) {
  const std::size_t n = std::size_t{1} << n_inputs;
  BitMatrix vectors(n, n_inputs);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t bit = 0; bit < n_inputs; ++bit) {
      vectors.set(row, bit, (row >> bit) & 1);
    }
  }
  return vectors;
}

class NetlistFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetlistFuzzTest, OptimizePreservesBehaviourExhaustively) {
  const std::uint64_t seed = GetParam();
  const std::size_t n_inputs = 6;
  const Netlist original = random_netlist(n_inputs, 24, seed, 4);
  NetlistOptStats stats;
  const Netlist optimized = optimize_netlist(original, &stats);
  EXPECT_LE(optimized.n_luts(), original.n_luts());
  EXPECT_TRUE(verify_equivalent(original, optimized,
                                exhaustive_vectors(n_inputs)))
      << "seed " << seed;
}

TEST_P(NetlistFuzzTest, OptimizeIsIdempotent) {
  const std::uint64_t seed = GetParam();
  const Netlist original = random_netlist(5, 16, seed, 3);
  const Netlist once = optimize_netlist(original);
  const Netlist twice = optimize_netlist(once);
  // One pass reaches the fixed point: folding runs in topological order and
  // the closing dead-logic sweep drops what the folds disconnected.
  EXPECT_TRUE(verify_equivalent(once, twice, exhaustive_vectors(5)));
  EXPECT_EQ(twice.n_luts(), once.n_luts()) << "seed " << seed;
}

TEST_P(NetlistFuzzTest, WordParallelMatchesScalarOnRandomNetlists) {
  const std::uint64_t seed = GetParam();
  const Netlist netlist = random_netlist(8, 20, seed, 5);
  Rng rng(seed ^ 0xfeedULL);
  BitMatrix vectors(100, 8);
  for (std::size_t r = 0; r < 100; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      vectors.set(r, c, rng.next_bool());
    }
  }
  const auto columns = netlist.simulate_dataset_outputs(vectors);
  for (std::size_t i = 0; i < vectors.rows(); ++i) {
    const auto scalar = netlist.simulate_outputs(vectors.row(i));
    for (std::size_t o = 0; o < scalar.size(); ++o) {
      ASSERT_EQ(columns[o].get(i), scalar[o]) << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace poetbin
